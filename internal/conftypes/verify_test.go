package conftypes

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/sysimage"
)

// pathEndingOracle is the FileName/PartialFilePath verification as it was
// written over the sorted FileList.
func pathEndingOracle(img *sysimage.Image, v string) bool {
	suffix := "/" + v
	for _, p := range img.FileList() {
		if strings.HasSuffix(p, suffix) {
			return true
		}
	}
	return false
}

// TestPathEndingMatchesFileList checks the in-place file-table scan
// against the FileList definition on random tables, non-clean keys
// included, for every key's tail and a set of awkward values.
func TestPathEndingMatchesFileList(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	segs := []string{"a", "b", "a.so", "", ".", "x/y"}
	for trial := 0; trial < 2000; trial++ {
		img := sysimage.New("verify")
		var keys []string
		for i := 0; i < 1+rng.Intn(12); i++ {
			p := ""
			for n := rng.Intn(4); n >= 0; n-- {
				if rng.Intn(4) > 0 {
					p += "/"
				}
				p += segs[rng.Intn(len(segs))]
			}
			img.Files[p] = &sysimage.FileMeta{Path: p}
			keys = append(keys, p)
		}
		vals := []string{"", "a", "/a", "a/", "a.so", "b/a.so", "x/y", "y"}
		for _, k := range keys {
			for i := 0; i <= len(k); i++ {
				vals = append(vals, k[i:])
			}
		}
		for _, v := range vals {
			if got, want := hasPathEndingIn(img, v), pathEndingOracle(img, v); got != want {
				t.Fatalf("trial %d: hasPathEndingIn(%q) = %v, FileList says %v; files %q", trial, v, got, want, keys)
			}
		}
	}
}

// TestFileNameVerifyDoesNotAllocate pins the semantic step of FileName and
// PartialFilePath to a scan that builds no path list and no suffix string.
func TestFileNameVerifyDoesNotAllocate(t *testing.T) {
	im := envImage()
	inf := NewInferencer()
	fn, pfp := inf.Def(TypeFileName), inf.Def(TypePartialFilePath)
	allocs := testing.AllocsPerRun(50, func() {
		fn.Verify("httpd.conf", im)
		fn.Verify("missing.conf", im)
		pfp.Verify("modules/libphp5.so", im)
	})
	if allocs != 0 {
		t.Fatalf("file-name verification allocated %.1f objects per run; want 0", allocs)
	}
}
