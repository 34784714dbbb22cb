package analysis

import (
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestObliviouslintAsm runs obliviouslint over the two packages with
// assembly, internal/oblivious (ortile_amd64.s) and internal/tensor
// (quant_amd64.s), whose kernels must pass, and over mutations of those
// files, each of which must fail the named checks of obliviouslint/asm:
// broken kernels, one broken instruction in each helper (so every TEXT
// block is shown to be read), the honest kernels under directives that
// mark a length secret, and, for the quantized kernels' secret-data,
// public-address shape, each way a secret sum, maximum or converted
// activation could leave the vector registers, an operand-dependent
// divide, and the result of each opcode the epilogue and the quantizer use
// moved into a general-purpose register.
func TestObliviouslintAsm(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the module has assembly only for amd64")
	}
	set, err := LoadModule("../..", "./internal/oblivious", "./internal/tensor")
	if err != nil {
		t.Fatal(err)
	}
	pkgs := map[string]*Package{}
	srcs := map[string]string{}
	for _, pkg := range set.Targets {
		if len(pkg.asmFiles) != 1 {
			t.Fatalf("%s: asmFiles = %v, want one file", pkg.Path, pkg.asmFiles)
		}
		raw, err := os.ReadFile(pkg.asmFiles[0])
		if err != nil {
			t.Fatal(err)
		}
		name := strings.TrimPrefix(pkg.Path, "secemb/internal/")
		pkgs[name], srcs[name] = pkg, string(raw)
	}
	if filepath.Base(pkgs["oblivious"].asmFiles[0]) != "ortile_amd64.s" || filepath.Base(pkgs["tensor"].asmFiles[0]) != "quant_amd64.s" {
		t.Fatalf("asm files %v, %v; want ortile_amd64.s and quant_amd64.s", pkgs["oblivious"].asmFiles, pkgs["tensor"].asmFiles)
	}

	// lint runs the whole analyzer over the package with src as its only
	// assembly file and returns the asm findings' messages.
	lint := func(t *testing.T, pkg *Package, src string) (got []string) {
		path := filepath.Join(t.TempDir(), filepath.Base(pkg.asmFiles[0]))
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		p := *pkg
		p.asmFiles = []string{path}
		res, err := RunProgram([]*Analyzer{Obliviouslint()}, NewProgram([]*Package{&p}, []*Package{&p}, set.Directives))
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range res.Findings {
			got = append(got, d.String())
		}
		return got
	}
	for name, pkg := range pkgs {
		if got := lint(t, pkg, srcs[name]); len(got) != 0 {
			t.Errorf("real %s package: %q", name, got)
		}
	}

	type mutation struct {
		name     string
		old, new string // a replacement in the real file of the kernel's package
		secret   string // "kernel param": a parameter to add to a kernel's directive
		checks   []string
	}
	cases := []mutation{
		{"branch on a mask", "\tXORQ AX, AX\n", "\tMOVQ m0+48(FP), BX\n\tTESTQ BX, BX\n\tJNE loop\n\tXORQ AX, AX\n", "",
			[]string{"orTileAVX2: mask", "orTileAVX2: jump"}},
		{"mask as an index", "VPAND   (SI)(AX*8), Y4, Y0", "MOVQ m0+48(FP), BX\n\tVPAND   (SI)(BX*8), Y4, Y0", "",
			[]string{"orTileAVX2: mask", "orTileAVX2: memory"}},
		{"mask read via MOVQ", "VPBROADCASTQ m0+48(FP), Y4", "MOVQ m0+48(FP), X4\n\tVPBROADCASTQ X4, Y4", "",
			[]string{"orTileAVX2: mask"}},
		{"length as an index", "VPAND   (SI)(AX*8), Y4, Y0", "VPAND   (SI)(CX*8), Y4, Y0", "",
			[]string{"orTileAVX2: memory"}},
		{"VPTEST and JNE", "\tVPOR    Y1, Y0, Y0\n", "\tVPTEST  Y0, Y0\n\tJNE     loop\n\tVPOR    Y1, Y0, Y0\n", "",
			[]string{"orTileAVX2: jump"}},
		{"mask into the counter", "\tADDQ    $4, AX\n", "\tVMOVQ   X4, AX\n\tADDQ    $4, AX\n", "",
			[]string{"orTileAVX2: mask", "orTileAVX2: register"}},
		{"forward jump in cpuid", "\tCPUID\n", "\tCPUID\n\tTESTL AX, AX\n\tJEQ done\n", "",
			[]string{"cpuid: jump"}},
		{"computed address in xgetbv", "\tXGETBV\n", "\tXGETBV\n\tMOVL (AX), AX\n", "",
			[]string{"xgetbv: memory"}},
		{"secret length", "", "", "orTileAVX2 n", []string{"orTileAVX2: param", "orTileAVX2: jump"}},
		{"scan mask into a register", "\tVPCMPEQQ Y8, Y9, Y7\n", "\tVPCMPEQQ Y8, Y9, Y7\n\tVPMOVMSKB Y7, AX\n", "",
			[]string{"scanBlockAVX2: mask", "scanBlockAVX2: vector"}},
		{"scan mask via VMOVQ", "\tVPCMPEQQ Y8, Y9, Y7\n", "\tVPCMPEQQ Y8, Y9, Y7\n\tVMOVQ X7, AX\n", "",
			[]string{"scanBlockAVX2: mask"}},
		{"scan VPTEST and JNE", "\tVPCMPEQQ Y8, Y9, Y7\n", "\tVPCMPEQQ Y8, Y9, Y7\n\tVPTEST Y7, Y7\n\tJNE rows16\n", "",
			[]string{"scanBlockAVX2: vector", "scanBlockAVX2: jump"}},
		{"scan id as a gather index", "VPAND    (SI)(R12*8), Y7, Y4", "VPGATHERQQ Y7, (SI)(Y8*8), Y4", "",
			[]string{"scanBlockAVX2: memory", "scanBlockAVX2: vector"}},
		{"scan cursor stepped by the id", "\tADDQ     BX, R12\n", "\tMOVQ     (DX), R13\n\tADDQ     R13, R12\n", "",
			[]string{"scanBlockAVX2: register"}},
		{"scan cursor reset from the id", "\tMOVQ    CX, R12\n", "\tMOVQ    (DX), R12\n", "",
			[]string{"scanBlockAVX2: register"}},
		{"scan string compare into the counter", "\tVPCMPEQQ Y8, Y9, Y7\n", "\tVPCMPEQQ Y8, Y9, Y7\n\tVPCMPESTRI $0, X7, X8\n", "",
			[]string{"scanBlockAVX2: vector", "scanBlockAVX2: register"}},
		{"scan secret width", "", "", "scanBlockAVX2 width", []string{"scanBlockAVX2: param", "scanBlockAVX2: register"}},
		{"quant VPTEST of a sum and JNE", "\tVPADDD       Y5, Y0, Y0\n", "\tVPADDD       Y5, Y0, Y0\n\tVPTEST       Y0, Y0\n\tJNE          k32\n", "",
			[]string{"quantDotsAVX2: vector", "quantDotsAVX2: jump"}},
		{"quant VPMOVMSKB of a sum", "\tVPADDD       Y5, Y0, Y0\n", "\tVPADDD       Y5, Y0, Y0\n\tVPMOVMSKB    Y0, R13\n", "",
			[]string{"quantDotsAVX2: vector", "quantDotsAVX2: mask"}},
		{"quant VMOVD of a sum into a register", "\tVPADDD       Y5, Y0, Y0\n", "\tVPADDD       Y5, Y0, Y0\n\tVMOVD        X0, R13\n", "",
			[]string{"quantDotsAVX2: vector", "quantDotsAVX2: mask"}},
		{"quant VPEXTRD of a sum into a register", "\tVPADDD       Y5, Y0, Y0\n", "\tVPADDD       Y5, Y0, Y0\n\tVPEXTRD      $1, X0, R13\n", "",
			[]string{"quantDotsAVX2: vector", "quantDotsAVX2: mask"}},
		{"quant address from a sum", "\tVPMADDUBSW   (R8)(R12*1), Y4, Y5\n", "\tVMOVD        X0, R13\n\tVPMADDUBSW   (R8)(R13*1), Y4, Y5\n", "",
			[]string{"quantDotsAVX2: mask", "quantDotsAVX2: memory"}},
		{"quant cursor stepped by an activation", "\tADDQ         $128, R12\n", "\tMOVQ         (SI), R13\n\tADDQ         R13, R12\n", "",
			[]string{"quantDotsAVX2: memory"}},
		{"quant secret depth", "", "", "quantDotsAVX2 kb", []string{"quantDotsAVX2: param", "quantDotsAVX2: jump"}},
		{"quant VMOVMSKPS of the max vector", "\tVPMAXUD Y1, Y0, Y0\n", "\tVPMAXUD Y1, Y0, Y0\n\tVMOVMSKPS Y0, R13\n", "",
			[]string{"quantMaxAVX2: vector", "quantMaxAVX2: mask"}},
		{"quant VDIVPS by the row max", "\tVPMAXUD Y1, Y0, Y0\n", "\tVPMAXUD Y1, Y0, Y0\n\tVDIVPS  Y0, Y1, Y1\n", "",
			[]string{"quantMaxAVX2: vector"}},
		{"quant VPTEST of a converted activation and JNE", "\tVCVTTPS2DQ Y0, Y0\n", "\tVCVTTPS2DQ Y0, Y0\n\tVPTEST     Y0, Y0\n\tJNE        b32\n", "",
			[]string{"quantBytesAVX2: vector", "quantBytesAVX2: jump"}},
		{"quant counter stepped by a converted byte", "\tADDQ       $8, CX\n", "\tMOVBQZX    (DI)(CX*1), R10\n\tADDQ       R10, CX\n", "",
			[]string{"quantBytesAVX2: register"}},
		{"quant secret quantizer length", "", "", "quantBytesAVX2 n8", []string{"quantBytesAVX2: param", "quantBytesAVX2: jump"}},
	}
	// Each opcode the fused epilogue and the quantizer added: its result
	// moved into a general-purpose register right after its first use.
	for _, site := range []struct{ kernel, line string }{
		{"quantDotsAVX2", "\tVPSUBD    Y9, Y0, Y0\n"},
		{"quantDotsAVX2", "\tVCVTDQ2PS Y0, Y0\n"},
		{"quantDotsAVX2", "\tVMULPS    Y10, Y0, Y0\n"},
		{"quantDotsAVX2", "\tVADDPS    (R14)(DX*4), Y0, Y0\n"},
		{"quantMaxAVX2", "\tVPMAXUD Y1, Y0, Y0\n"},
		{"quantBytesAVX2", "\tVPMOVZXBD    X12, Y12\n"},
		{"quantBytesAVX2", "\tVCVTTPS2DQ Y0, Y0\n"},
		{"quantBytesAVX2", "\tVPACKUSDW  Y1, Y0, Y0\n"},
		{"quantBytesAVX2", "\tVPACKUSWB  Y2, Y0, Y0\n"},
		{"quantBytesAVX2", "\tVPERMD     Y0, Y12, Y0\n"},
	} {
		f := strings.Fields(strings.ReplaceAll(site.line, ",", " "))
		cases = append(cases, mutation{"quant " + f[0] + " result into a register", site.line, site.line + "\tVPMOVMSKB " + f[len(f)-1] + ", R15\n", "",
			[]string{site.kernel + ": vector", site.kernel + ": mask"}})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pkg := "oblivious"
			if strings.HasPrefix(tc.name, "quant ") {
				pkg = "tensor"
			}
			src := srcs[pkg]
			if !strings.Contains(src, tc.old) {
				t.Fatalf("the kernel no longer contains %q", tc.old)
			}
			if fn, param, ok := strings.Cut(tc.secret, " "); ok {
				kernel := set.Directives.funcs["secemb/internal/"+pkg+"."+fn]
				if kernel == nil {
					t.Fatalf("%s carries no directive", fn)
				}
				kernel.Secret[param] = true
				defer delete(kernel.Secret, param)
			}
			got := lint(t, pkgs[pkg], strings.Replace(src, tc.old, tc.new, 1))
			for _, check := range tc.checks {
				if !slices.ContainsFunc(got, func(m string) bool { return strings.Contains(m, RuleAsm+": "+check+": ") }) {
					t.Errorf("no %q finding; got %q", check, got)
				}
			}
		})
	}
}
