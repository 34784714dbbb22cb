package oblivious

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// obliviouslint treats this package as a sink and never reads assembly, so
// the hand-written kernels are checked here instead. auditAsm parses each
// TEXT block of a *_amd64.s file against its Go declaration, where a
// pointer parameter is a base address, an int parameter a public length
// and every other parameter a secret mask, and reports:
//
//   - jump: a conditional jump that is not a back-edge to a label above it
//     right after CMPQ of the loop counter with a length register;
//   - mask: a mask read by anything but VPBROADCASTQ into a vector
//     register, or a vector register moved into a general-purpose one;
//   - memory: a memory operand whose base is not a register loaded from a
//     pointer argument, or whose index is not the loop counter;
//   - register: a loop counter written other than by XORQ, MOVQ $c or
//     ADDQ $c.
//
// go vet's asmdecl checks the frame offsets against the declarations.

// asmParamKind is what a parameter is to the audit; the zero value marks
// a register no argument was loaded into.
type asmParamKind int

const (
	asmPointer asmParamKind = iota + 1
	asmLength
	asmMask
)

// asmInstr is one instruction of a TEXT block: its opcode, its operands in
// Go assembler order (destination last) and its source line.
type asmInstr struct {
	op   string
	args []string
	line int
}

var (
	asmTextRE  = regexp.MustCompile(`^TEXT\s+·(\w+)\(SB\)`)
	asmLabelRE = regexp.MustCompile(`^(\w+):$`)
	asmFrameRE = regexp.MustCompile(`^(\w+)\+\d+\(FP\)$`)
	asmMemRE   = regexp.MustCompile(`^-?\d*\((\w+)\)(?:\((\w+)\*[1248]\))?$`)
	asmGPRE    = regexp.MustCompile(`^(AX|BX|CX|DX|SI|DI|BP|SP|R(?:[89]|1[0-5]))$`)
	asmVecRE   = regexp.MustCompile(`^[XYZ]\d+$`)
)

// asmImplicitWrites lists the general-purpose registers an instruction
// writes without naming them.
var asmImplicitWrites = map[string][]string{
	"CPUID":  {"AX", "BX", "CX", "DX"},
	"XGETBV": {"AX", "DX"},
}

// asmDecls returns the parameters of the bodiless functions declared in
// the package's *_amd64.go files, by function name.
func asmDecls(t *testing.T) map[string]map[string]asmParamKind {
	files, err := filepath.Glob("*_amd64.go")
	if err != nil {
		t.Fatal(err)
	}
	decls := map[string]map[string]asmParamKind{}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body != nil {
				continue
			}
			params := map[string]asmParamKind{}
			for _, field := range fd.Type.Params.List {
				kind := asmMask
				switch typ := field.Type.(type) {
				case *ast.StarExpr:
					kind = asmPointer
				case *ast.Ident:
					if typ.Name == "int" {
						kind = asmLength
					}
				}
				for _, n := range field.Names {
					params[n.Name] = kind
				}
			}
			decls[fd.Name.Name] = params
		}
	}
	return decls
}

// auditAsm returns one finding per violated rule in src's TEXT blocks.
func auditAsm(src string, decls map[string]map[string]asmParamKind) []string {
	var findings []string
	var name string
	var block []asmInstr
	labels := map[string]int{}
	flush := func() {
		if name != "" {
			findings = append(findings, auditAsmBlock(name, block, labels, decls[name])...)
		}
		block, labels = nil, map[string]int{}
	}
	for i, raw := range strings.Split(src, "\n") {
		line := raw
		if c := strings.Index(line, "//"); c >= 0 {
			line = line[:c]
		}
		line = strings.TrimSpace(line)
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "TEXT"):
			flush()
			m := asmTextRE.FindStringSubmatch(line)
			if m == nil {
				findings = append(findings, fmt.Sprintf("line %d: unparsed TEXT directive %q", i+1, line))
				name = ""
				continue
			}
			name = m[1]
			if decls[name] == nil {
				findings = append(findings, fmt.Sprintf("%s: no Go declaration", name))
			}
		case asmLabelRE.MatchString(line):
			labels[asmLabelRE.FindStringSubmatch(line)[1]] = len(block)
		default:
			op, rest, _ := strings.Cut(line, " ")
			var args []string
			for _, a := range strings.Split(rest, ",") {
				if a = strings.TrimSpace(a); a != "" {
					args = append(args, a)
				}
			}
			block = append(block, asmInstr{op: op, args: args, line: i + 1})
		}
	}
	flush()
	return findings
}

func auditAsmBlock(name string, block []asmInstr, labels map[string]int, params map[string]asmParamKind) []string {
	var findings []string
	report := func(in asmInstr, rule, format string, a ...any) {
		findings = append(findings, fmt.Sprintf("%s: line %d: %s: %s", name, in.line, rule, fmt.Sprintf(format, a...)))
	}
	dest := func(in asmInstr) string {
		if len(in.args) == 0 || strings.HasPrefix(in.op, "CMP") || strings.HasPrefix(in.op, "TEST") {
			return ""
		}
		return in.args[len(in.args)-1]
	}

	// Classify registers by what writes them: a base or length register is
	// written once, by a load from a pointer or int argument; a loop
	// counter is the first operand of a back-edge CMPQ.
	writes := map[string][]asmInstr{}
	kindOf := map[string]asmParamKind{}
	for _, in := range block {
		for _, r := range asmImplicitWrites[in.op] {
			writes[r] = append(writes[r], in)
		}
		d := dest(in)
		if !asmGPRE.MatchString(d) {
			continue
		}
		writes[d] = append(writes[d], in)
		if in.op == "MOVQ" && len(in.args) == 2 {
			if m := asmFrameRE.FindStringSubmatch(in.args[0]); m != nil {
				if k := params[m[1]]; k != asmMask {
					kindOf[d] = k
				}
			}
		}
	}
	isBase := func(r string) bool { return kindOf[r] == asmPointer && len(writes[r]) == 1 }
	isLength := func(r string) bool { return kindOf[r] == asmLength && len(writes[r]) == 1 }
	counters := map[string]bool{}
	for i, in := range block {
		if !strings.HasPrefix(in.op, "J") || in.op == "JMP" {
			continue
		}
		target, ok := labels[in.args[0]]
		if !ok || target >= i {
			report(in, "jump", "%s %s is not a back-edge", in.op, in.args[0])
			continue
		}
		prev := block[i-1]
		if prev.op != "CMPQ" || len(prev.args) != 2 || !isLength(prev.args[1]) {
			report(in, "jump", "%s does not follow CMPQ counter, length", in.op)
			continue
		}
		counters[prev.args[0]] = true
	}
	for c := range counters {
		for _, in := range writes[c] {
			counterWrite := (in.op == "XORQ" && len(in.args) == 2 && in.args[0] == c) ||
				((in.op == "MOVQ" || in.op == "ADDQ") && strings.HasPrefix(in.args[0], "$"))
			if !counterWrite {
				report(in, "register", "loop counter %s written by %s", c, in.op)
			}
		}
	}

	for _, in := range block {
		d := dest(in)
		for j, a := range in.args {
			if m := asmFrameRE.FindStringSubmatch(a); m != nil {
				if params[m[1]] == asmMask && (in.op != "VPBROADCASTQ" || j != 0 || !asmVecRE.MatchString(d)) {
					report(in, "mask", "mask %s read by %s", m[1], in.op)
				}
				continue
			}
			if asmVecRE.MatchString(a) && asmGPRE.MatchString(d) {
				report(in, "mask", "%s moves vector register %s into %s", in.op, a, d)
			}
			if !strings.Contains(a, "(") {
				continue
			}
			m := asmMemRE.FindStringSubmatch(a)
			switch {
			case m == nil || !isBase(m[1]):
				report(in, "memory", "operand %s is not based on a pointer argument", a)
			case m[2] != "" && !counters[m[2]]:
				report(in, "memory", "operand %s is not indexed by the loop counter", a)
			}
		}
	}
	return findings
}

// TestAsmAudit runs auditAsm over every *_amd64.s in the package, which
// must pass, and over two broken kernels, which it must reject: one that
// branches on a mask and one that indexes memory with a mask.
func TestAsmAudit(t *testing.T) {
	decls := asmDecls(t)
	files, err := filepath.Glob("*_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no *_amd64.s files")
	}
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(src), "TEXT") {
			t.Fatalf("%s: no TEXT blocks", name)
		}
		for _, f := range auditAsm(string(src), decls) {
			t.Errorf("%s: %s", name, f)
		}
	}

	fixtures := []struct {
		name, src string
		rules     []string
	}{
		{"branch on a mask", `
TEXT ·orTileAVX2(SB), NOSPLIT, $0-80
	MOVQ a+0(FP), DI
	MOVQ t0+8(FP), SI
	MOVQ m0+48(FP), BX
	TESTQ BX, BX
	JNE done
	VMOVDQU (SI), Y0
	VMOVDQU Y0, (DI)
done:
	VZEROUPPER
	RET
`, []string{"mask", "jump"}},
		{"mask as an index", `
TEXT ·orTileAVX2(SB), NOSPLIT, $0-80
	MOVQ a+0(FP), DI
	MOVQ t0+8(FP), SI
	MOVQ m0+48(FP), BX
	VMOVDQU (SI)(BX*8), Y0
	VMOVDQU Y0, (DI)
	VZEROUPPER
	RET
`, []string{"mask", "memory"}},
	}
	for _, fx := range fixtures {
		got := strings.Join(auditAsm(fx.src, decls), "\n")
		for _, rule := range fx.rules {
			if !strings.Contains(got, ": "+rule+": ") {
				t.Errorf("%s: no %q finding; got:\n%s", fx.name, rule, got)
			}
		}
	}
}
