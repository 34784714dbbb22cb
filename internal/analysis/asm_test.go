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
// read), and the honest kernel under a directive that marks n secret.
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
	kernel := set.Directives.funcs["secemb/internal/oblivious.orTileAVX2"]
	if kernel == nil {
		t.Fatal("orTileAVX2 carries no directive")
	}

	cases := []struct {
		name     string
		old, new string // a replacement in the real file
		secret   string // a parameter to add to orTileAVX2's directive
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
		{"secret length", "", "", "n", []string{"orTileAVX2: param", "orTileAVX2: jump"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if !strings.Contains(src, tc.old) {
				t.Fatalf("the kernel no longer contains %q", tc.old)
			}
			if tc.secret != "" {
				kernel.Secret[tc.secret] = true
				defer delete(kernel.Secret, tc.secret)
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
