package analysis

import (
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestObliviouslintAsm runs obliviouslint over internal/oblivious, whose
// ortile_amd64.s must pass, and over mutations of that file, each of which
// must fail the named checks of obliviouslint/asm: broken kernels, one
// broken instruction in each helper (so every TEXT block is shown to be
// read), and the honest kernels under directives that mark a length
// secret.
func TestObliviouslintAsm(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the module has assembly only for amd64")
	}
	set, err := LoadModule("../..", "./internal/oblivious")
	if err != nil {
		t.Fatal(err)
	}
	pkg := set.Targets[0]
	if len(pkg.asmFiles) != 1 || filepath.Base(pkg.asmFiles[0]) != "ortile_amd64.s" {
		t.Fatalf("asmFiles = %v, want [.../ortile_amd64.s]", pkg.asmFiles)
	}
	raw, err := os.ReadFile(pkg.asmFiles[0])
	if err != nil {
		t.Fatal(err)
	}
	src := string(raw)

	// lint runs the whole analyzer over the package with src as its only
	// assembly file and returns the asm findings' messages.
	lint := func(t *testing.T, src string) (got []string) {
		path := filepath.Join(t.TempDir(), "ortile_amd64.s")
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
	if got := lint(t, src); len(got) != 0 {
		t.Errorf("real package: %q", got)
	}

	cases := []struct {
		name     string
		old, new string // a replacement in the real file
		secret   string // "kernel param": a parameter to add to a kernel's directive
		checks   []string
	}{
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
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if !strings.Contains(src, tc.old) {
				t.Fatalf("the kernel no longer contains %q", tc.old)
			}
			if fn, param, ok := strings.Cut(tc.secret, " "); ok {
				kernel := set.Directives.funcs["secemb/internal/oblivious."+fn]
				if kernel == nil {
					t.Fatalf("%s carries no directive", fn)
				}
				kernel.Secret[param] = true
				defer delete(kernel.Secret, param)
			}
			got := lint(t, strings.Replace(src, tc.old, tc.new, 1))
			for _, check := range tc.checks {
				if !slices.ContainsFunc(got, func(m string) bool { return strings.Contains(m, RuleAsm+": "+check+": ") }) {
					t.Errorf("no %q finding; got %q", check, got)
				}
			}
		})
	}
}
