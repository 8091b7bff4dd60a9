package sysimage

import (
	"fmt"
	"math/rand"
	"path"
	"testing"
)

// childKindOracle is the definition HasSubdir and HasSymlink had before
// they stopped collecting children: build the sorted Children slice and
// scan it for the kind.
func childKindOracle(im *Image, dir string, kind FileKind) bool {
	for _, c := range im.Children(dir) {
		if c.Kind == kind {
			return true
		}
	}
	return false
}

// randomProbeImage fills Files directly (bypassing AddFile's
// normalization) so the table holds the non-clean keys a hand-written or
// foreign snapshot can carry.
func randomProbeImage(rng *rand.Rand) (*Image, []string) {
	segs := []string{"a", "b", "x", ".", "..", ""}
	oddKeys := []string{"/a//b/", "/x/.", "", "/", ".", "a/b", "/a/b/..", "//a"}
	im := New("probe")
	var keys []string
	for i := 0; i < 6+rng.Intn(20); i++ {
		var p string
		if rng.Intn(4) == 0 {
			p = oddKeys[rng.Intn(len(oddKeys))]
		} else {
			if rng.Intn(5) > 0 {
				p = "/"
			}
			for n := 1 + rng.Intn(4); n > 0; n-- {
				p += segs[rng.Intn(len(segs))]
				if n > 1 || rng.Intn(6) == 0 {
					p += "/"
				}
			}
		}
		im.Files[p] = &FileMeta{Path: p, Kind: FileKind(rng.Intn(3))}
		keys = append(keys, p)
	}
	return im, keys
}

// TestChildProbesMatchChildren is the probes' property test: on random
// file tables, non-clean keys included, HasSubdir and HasSymlink answer
// exactly what the Children-based definition answers, for every key, its
// parent, and a set of awkward directory arguments.
func TestChildProbesMatchChildren(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 2000; trial++ {
		im, keys := randomProbeImage(rng)
		dirs := append([]string{"", "/", ".", "a", "/a", "/a/", "/a//", "/x/.", "/a/b"}, keys...)
		for _, k := range keys {
			dirs = append(dirs, k+"/..", k+"/")
		}
		for _, d := range dirs {
			if got, want := im.HasSubdir(d), childKindOracle(im, d, KindDir); got != want {
				t.Fatalf("trial %d: HasSubdir(%q) = %v, Children says %v; files %q", trial, d, got, want, keys)
			}
			if got, want := im.HasSymlink(d), childKindOracle(im, d, KindSymlink); got != want {
				t.Fatalf("trial %d: HasSymlink(%q) = %v, Children says %v; files %q", trial, d, got, want, keys)
			}
		}
	}
}

// TestChildProbesDoNotAllocate pins the probes' cost on a normalized file
// table (every image built through AddFile or captured by the collector):
// no slice, no sort, no allocation.
func TestChildProbesDoNotAllocate(t *testing.T) {
	im := testImage()
	im.AddDir("/var/lib/mysql/perf", "mysql", "mysql", 0o750)
	im.AddSymlink("/var/lib/mysql/link", "/tmp", "mysql", "mysql")
	im.AddRegular("/var/lib/mysql/ibdata1", "mysql", "mysql", 0o660, 10)
	allocs := testing.AllocsPerRun(50, func() {
		im.HasSubdir("/var/lib/mysql")
		im.HasSymlink("/var/lib/mysql")
		im.HasSubdir("/etc")
		im.HasSymlink("/no/such/dir")
	})
	if allocs != 0 {
		t.Fatalf("child probes allocated %.1f objects per run; want 0", allocs)
	}
}

// TestPathShortcutsMatchPathPackage checks normalize and parentDir, whose
// shortcuts skip path.Clean for plain absolute paths, against path.Clean
// and path.Dir on every string up to length 7 over a dense alphabet.
func TestPathShortcutsMatchPathPackage(t *testing.T) {
	const alphabet = "/.a"
	var walk func(p string)
	walk = func(p string) {
		want := path.Clean(p)
		if p == "" {
			want = ""
		}
		if got := normalize(p); got != want {
			t.Fatalf("normalize(%q) = %q, want %q", p, got, want)
		}
		if got, want := parentDir(p), path.Dir(p); got != want {
			t.Fatalf("parentDir(%q) = %q, want %q", p, got, want)
		}
		if len(p) == 7 {
			return
		}
		for i := 0; i < len(alphabet); i++ {
			walk(p + alphabet[i:i+1])
		}
	}
	walk("")
}

// TestPermString pins PermString to the fmt spelling it replaced.
func TestPermString(t *testing.T) {
	for mode := uint32(0); mode <= 0o7777; mode++ {
		if got, want := PermString(mode), fmt.Sprintf("0%o", mode); got != want {
			t.Fatalf("PermString(%o) = %q, want %q", mode, got, want)
		}
	}
}
