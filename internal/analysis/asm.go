package analysis

import (
	"fmt"
	"go/token"
	"go/types"
	"os"
	"regexp"
	"slices"
	"strings"
)

// The obliviouslint/asm rule audits the hand-written assembly of a target
// package, the .s files its host build compiles. Each TEXT block is read
// against the type-checked Go declaration of its symbol and that
// declaration's secemb:secret list: a pointer parameter is a base address
// (what it points at may be secret, the address is not), a non-secret int
// a public length, a secret non-pointer a mask, and anything else, a
// secret int included, is a "param" finding, so a secret cannot pass as a
// loop bound. The block is then held to five checks:
//
//   - jump: a conditional jump must be a back-edge to a label above it,
//     right after CMPQ of the loop counter with a length register;
//   - mask: a mask may be read only by VPBROADCASTQ into a vector
//     register, and no vector register may move into a general-purpose
//     one;
//   - memory: every memory operand's base is a register loaded once from
//     a pointer argument, and any index is a loop counter or a cursor, a
//     register no back-edge compares that is written only the ways a loop
//     counter may be (a weight cursor walking a panel beside the counter);
//   - register: a loop counter is written only by XORQ, MOVQ $c, ADDQ $c,
//     ADDQ of a length register (a row cursor stepping by a public width)
//     or MOVQ from another loop counter (a cursor reset to a column);
//   - vector: in a block that reads memory behind a pointer argument,
//     every vector instruction (a V opcode, or one with a vector register
//     operand) is on asmVectorOps, so none reads a vector into flags, and
//     there is no masked or gather load.
//
// go vet's asmdecl checks the frame offsets against the declarations.

// asmKind is what a parameter, or the register loaded from it, is to the
// audit; the zero value marks a register no argument was loaded into.
type asmKind int

const (
	asmPointer asmKind = iota + 1
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
	"CPUID":      {"AX", "BX", "CX", "DX"},
	"XGETBV":     {"AX", "DX"},
	"PCMPESTRI":  {"CX"},
	"PCMPISTRI":  {"CX"},
	"VPCMPESTRI": {"CX"},
	"VPCMPISTRI": {"CX"},
}

// asmVectorOps are the vector instructions a block that reads memory
// behind a pointer argument may use: broadcasts, lane-wise compares and
// logic, lane-wise integer adds, subtracts and unsigned max, word shifts,
// the byte and word multiply-adds of an integer dot product, float
// multiplies and adds, the int↔float conversions, the saturating packs,
// a byte zero-extend, a dword permute, and plain moves. None sets flags or
// takes an address from a vector, and none has an operand-dependent
// latency (no divide or square root). VMOVQ may load a vector from a
// general-purpose register, and the mask check rejects the other
// direction.
var asmVectorOps = map[string]bool{
	"VPBROADCASTQ": true, "VPBROADCASTD": true, "VPCMPEQQ": true,
	"VPAND": true, "VPANDN": true, "VPOR": true, "VPXOR": true,
	"VPADDQ": true, "VPSUBQ": true, "VPADDD": true, "VPSUBD": true,
	"VPMAXUD": true, "VPSRLW": true,
	"VPMADDUBSW": true, "VPMADDWD": true,
	"VMULPS": true, "VADDPS": true, "VCVTDQ2PS": true, "VCVTTPS2DQ": true,
	"VPACKUSDW": true, "VPACKUSWB": true, "VPMOVZXBD": true, "VPERMD": true,
	"VMOVDQU": true, "VMOVDQA": true, "VMOVQ": true,
	"VZEROUPPER": true,
}

// auditAsm splits each assembly file of the pass's package into TEXT
// blocks and audits every block.
func auditAsm(pass *Pass) error {
	for _, path := range pass.Pkg.asmFiles {
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		report := func(line int, format string, args ...any) {
			pass.report(Diagnostic{
				Pos:     token.Position{Filename: path, Line: line, Column: 1},
				Rule:    RuleAsm,
				Message: fmt.Sprintf(format, args...),
			})
		}
		var name string
		var text int
		var block []asmInstr
		labels := map[string]int{}
		flush := func() {
			if name != "" {
				auditAsmBlock(pass, name, text, block, labels, report)
			}
			name, block, labels = "", nil, map[string]int{}
		}
		for i, line := range strings.Split(string(src), "\n") {
			line, _, _ = strings.Cut(line, "//")
			line = strings.TrimSpace(line)
			switch {
			case line == "" || strings.HasPrefix(line, "#"):
			case strings.HasPrefix(line, "TEXT"):
				flush()
				m := asmTextRE.FindStringSubmatch(line)
				if m == nil {
					report(i+1, "unparsed TEXT directive %q", line)
					continue
				}
				name, text = m[1], i+1
			case asmLabelRE.MatchString(line):
				labels[strings.TrimSuffix(line, ":")] = len(block)
			default:
				f := strings.Fields(strings.ReplaceAll(line, ",", " "))
				block = append(block, asmInstr{op: f[0], args: f[1:], line: i + 1})
			}
		}
		flush()
	}
	return nil
}

// auditAsmBlock audits the TEXT block of symbol name, whose directive is
// on line text.
func auditAsmBlock(pass *Pass, name string, text int, block []asmInstr, labels map[string]int, report func(int, string, ...any)) {
	finding := func(line int, check, format string, args ...any) {
		report(line, "%s: %s: %s", name, check, fmt.Sprintf(format, args...))
	}
	fn, _ := pass.Pkg.Types.Scope().Lookup(name).(*types.Func)
	if fn == nil {
		finding(text, "param", "no Go declaration")
		return
	}
	var secret map[string]bool
	if dir := pass.Directives.Lookup(fn); dir != nil {
		secret = dir.Secret
	}
	params := map[string]asmKind{}
	for p := range fn.Type().(*types.Signature).Params().Variables() {
		_, isPtr := p.Type().Underlying().(*types.Pointer)
		isInt := types.Identical(p.Type(), types.Typ[types.Int])
		switch {
		case isPtr:
			params[p.Name()] = asmPointer
		case isInt && !secret[p.Name()]:
			params[p.Name()] = asmLength
		case secret[p.Name()] && !isInt:
			params[p.Name()] = asmMask
		default:
			finding(text, "param", "%s %s is neither a pointer, a public int nor a secret mask", p.Name(), p.Type())
		}
	}
	dest := func(in asmInstr) string {
		if len(in.args) == 0 || strings.HasPrefix(in.op, "CMP") || strings.HasPrefix(in.op, "TEST") {
			return ""
		}
		return in.args[len(in.args)-1]
	}

	// Classify registers by what writes them: a base or length register is
	// written once, by a load from a pointer or length argument; a loop
	// counter is the first operand of a back-edge CMPQ.
	writes := map[string][]asmInstr{}
	kindOf := map[string]asmKind{}
	for _, in := range block {
		for _, r := range asmImplicitWrites[in.op] {
			writes[r] = append(writes[r], in)
		}
		d := dest(in)
		if !asmGPRE.MatchString(d) {
			continue
		}
		writes[d] = append(writes[d], in)
		if m := asmFrameRE.FindStringSubmatch(in.args[0]); in.op == "MOVQ" && len(in.args) == 2 && m != nil {
			if k := params[m[1]]; k == asmPointer || k == asmLength {
				kindOf[d] = k
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
			finding(in.line, "jump", "%s %s is not a back-edge", in.op, in.args[0])
			continue
		}
		prev := block[i-1]
		if prev.op != "CMPQ" || len(prev.args) != 2 || !isLength(prev.args[1]) {
			finding(in.line, "jump", "%s does not follow CMPQ counter, length", in.op)
			continue
		}
		counters[prev.args[0]] = true
	}
	// counterWrite reports whether in writes r the way a loop counter may
	// be written.
	counterWrite := func(r string, in asmInstr) bool {
		src := in.args[0]
		return (in.op == "XORQ" && len(in.args) == 2 && src == r) ||
			((in.op == "MOVQ" || in.op == "ADDQ") && strings.HasPrefix(src, "$")) ||
			(in.op == "ADDQ" && isLength(src)) ||
			(in.op == "MOVQ" && counters[src] && src != r)
	}
	for c := range counters {
		for _, in := range writes[c] {
			if !counterWrite(c, in) {
				finding(in.line, "register", "loop counter %s written by %s", c, in.op)
			}
		}
	}
	// An index register no back-edge compares is a cursor when every write
	// to it is one a loop counter may make.
	isCursor := func(r string) bool {
		return len(writes[r]) > 0 && !slices.ContainsFunc(writes[r], func(in asmInstr) bool { return !counterWrite(r, in) })
	}

	readsPointer := slices.ContainsFunc(block, func(in asmInstr) bool {
		return slices.ContainsFunc(in.args, func(a string) bool {
			m := asmMemRE.FindStringSubmatch(a)
			return m != nil && isBase(m[1])
		})
	})
	for _, in := range block {
		d := dest(in)
		vector := strings.HasPrefix(in.op, "V") || slices.ContainsFunc(in.args, asmVecRE.MatchString)
		if readsPointer && vector && !asmVectorOps[in.op] {
			finding(in.line, "vector", "%s is not an allowed vector instruction", in.op)
		}
		for j, a := range in.args {
			if m := asmFrameRE.FindStringSubmatch(a); m != nil {
				if params[m[1]] == asmMask && (in.op != "VPBROADCASTQ" || j != 0 || !asmVecRE.MatchString(d)) {
					finding(in.line, "mask", "mask %s read by %s", m[1], in.op)
				}
				continue
			}
			if asmVecRE.MatchString(a) && asmGPRE.MatchString(d) {
				finding(in.line, "mask", "%s moves vector register %s into %s", in.op, a, d)
			}
			if !strings.Contains(a, "(") {
				continue
			}
			m := asmMemRE.FindStringSubmatch(a)
			switch {
			case m == nil || !isBase(m[1]):
				finding(in.line, "memory", "operand %s is not based on a pointer argument", a)
			case m[2] != "" && !counters[m[2]] && !isCursor(m[2]):
				finding(in.line, "memory", "operand %s is not indexed by a loop counter or cursor", a)
			}
		}
	}
}
