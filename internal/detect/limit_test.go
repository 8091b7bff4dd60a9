package detect

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/assemble"
	"repro/internal/sysimage"
)

// flatImage is a MySQL image whose [mysqld] section sets each key to its
// value, nothing else varying.
func flatImage(id string, kv map[string]string, keys []string) *sysimage.Image {
	im := sysimage.New(id)
	lines := []string{"[mysqld]"}
	for _, k := range keys {
		lines = append(lines, k+" = "+kv[k])
	}
	im.SetConfig("mysql", "/etc/my.cnf", strings.Join(lines, "\n")+"\n")
	return im
}

// TestSuspiciousLimitKeepsTiesDeterministic pins the SuspiciousValueLimit
// cut: with limit 1 and several tied suspicious values (every training
// system agreed on each entry, so each deviation scores 70), the
// survivor is the lowest attribute name, on every run, and the compiled
// plan agrees with the legacy detector.
func TestSuspiciousLimitKeepsTiesDeterministic(t *testing.T) {
	keys := []string{"echo_mode", "alpha_mode", "delta_mode", "bravo_mode", "charlie_mode"}
	base := map[string]string{}
	for _, k := range keys {
		base[k] = "standard"
	}
	var training []*sysimage.Image
	for i := 0; i < 8; i++ {
		training = append(training, flatImage(fmt.Sprintf("train-%d", i), base, keys))
	}
	ds, err := assemble.New().AssembleTraining(training)
	if err != nil {
		t.Fatal(err)
	}
	drifted := map[string]string{}
	for _, k := range keys {
		drifted[k] = "drifted"
	}
	target := flatImage("target", drifted, keys)

	dt := New(ds, nil)
	dt.SuspiciousValueLimit = 1
	plan := dt.Compile()
	first, err := dt.Check(target)
	if err != nil {
		t.Fatal(err)
	}
	var susp []*Warning
	for _, w := range first.Warnings {
		if w.Kind == KindSuspicious {
			susp = append(susp, w)
		}
	}
	if len(susp) != 1 || susp[0].Attr != "mysql:mysqld/alpha_mode" {
		t.Fatalf("limit 1 kept %v; want exactly mysql:mysqld/alpha_mode", renderAll(susp))
	}
	for run := 0; run < 50; run++ {
		legacy, err := dt.Check(target)
		if err != nil {
			t.Fatal(err)
		}
		got, err := plan.Check(target)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(legacy, first) {
			t.Fatalf("run %d: legacy report changed:\n%v\nwant\n%v", run, renderAll(legacy.Warnings), renderAll(first.Warnings))
		}
		if !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d: plan report differs:\n%v\nwant\n%v", run, renderAll(got.Warnings), renderAll(first.Warnings))
		}
	}
}

func renderAll(ws []*Warning) []string {
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = fmt.Sprintf("#%d %.2f %s %s", w.Rank, w.Score, w.Kind, w.Attr)
	}
	return out
}
