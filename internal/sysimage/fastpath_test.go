package sysimage_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/internal/inject"
	"repro/internal/sysimage"
)

var apps = []string{"apache", "mysql", "php", "sshd"}

// TestCorpusImagesTakeFastPath requires every image the generators and the
// error injector produce to decode on the single-pass path, equal to the
// encoding/json reference. An image that fell back would still decode
// correctly, only several times slower, so nothing else would notice.
func TestCorpusImagesTakeFastPath(t *testing.T) {
	var images []*sysimage.Image
	rng := rand.New(rand.NewSource(11))
	for _, app := range apps {
		for _, hw := range []bool{false, true} {
			im, err := corpus.BuildApp(app, fmt.Sprintf("%s-hw-%v", app, hw), rng, hw)
			if err != nil {
				t.Fatal(err)
			}
			images = append(images, im)
		}
		training, err := corpus.Training(app, 20, 3)
		if err != nil {
			t.Fatal(err)
		}
		images = append(images, training...)
		for i, victim := range training[:5] {
			victim = victim.Clone()
			if _, err := inject.New(int64(i)).Inject(victim, app, 1+i); err != nil {
				t.Fatal(err)
			}
			images = append(images, victim)
		}
	}
	for _, im := range images {
		data, err := im.MarshalJSONIndent()
		if err != nil {
			t.Fatal(err)
		}
		got, ok := sysimage.DecodeImage(data)
		if !ok {
			t.Fatalf("%s fell back to encoding/json", im.ID)
		}
		want, err := sysimage.DecodeJSONReflect(data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: fast path differs from encoding/json", im.ID)
		}
	}
}
