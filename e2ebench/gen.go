package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/corpus"
	"repro/internal/inject"
	"repro/internal/sysimage"
)

// apps are the paper's three training populations, in the order every
// workload walks them.
var apps = []string{"apache", "mysql", "php"}

// Shape fixes every size and rate a workload uses. It never depends on
// the seed: a seed changes which images are generated, nothing else.
type Shape struct {
	// Training is the paper's population size per app (Section 7).
	Training map[string]int
	// DeltaPool is how many fresh images per app the delta op draws its
	// two additions from.
	DeltaPool int
	// Victims is the injected-victim pool per app: serve-mixed request
	// bodies and learn-paper's recall probe.
	Victims int
	// VictimErrors is how many errors each victim carries.
	VictimErrors int
	// ServeVictims is serve-mixed's request pool per app: the first this
	// many victims with findings under both of its plans.
	ServeVictims int
	// Fleet is the number of distinct images per app on fleet-disk, and
	// FleetDefectEvery makes every n-th of them (in a seeded shuffle)
	// carry one injected error.
	Fleet            int
	FleetDefectEvery int
	// Changed is the size of fleet-disk's incremental batch per app.
	Changed int
	// SwapAdds is how many victims-free fresh images plan B adds to plan
	// A's training set (serve-mixed swaps between A and B).
	SwapAdds int
}

// defaultShape is the shape every run uses.
var defaultShape = Shape{
	Training:         map[string]int{"apache": corpus.TrainingApache, "mysql": corpus.TrainingMySQL, "php": corpus.TrainingPHP},
	DeltaPool:        32,
	Victims:          128,
	VictimErrors:     2,
	ServeVictims:     120,
	Fleet:            1000,
	FleetDefectEvery: 10,
	Changed:          16,
	SwapAdds:         8,
}

// Victim is one generated image carrying injected errors, with the
// injection log that judges recall.
type Victim struct {
	Path       string
	Body       []byte `json:"-"`
	Injections []inject.Injection
}

// Inputs is everything a workload hands the program, all under Dir.
type Inputs struct {
	Dir   string
	Shape Shape
	// Per app: the training directory, the delta pool directory, the fleet
	// directory and the incremental batch directory.
	TrainDir   map[string]string
	DeltaDir   map[string]string
	FleetDir   map[string]string
	ChangedDir map[string]string
	// FleetDefects maps a fleet image path to its injections.
	FleetDefects map[string][]inject.Injection
	Victims      map[string][]Victim
}

// subSeed derives an independent generator seed for one named input
// stream, so adding a stream never shifts another's images.
func subSeed(seed int64, stream string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, stream)
	return int64(h.Sum64() >> 1)
}

// parts selects which input sets generate builds; each workload needs a
// subset.
type parts struct {
	training, delta, victims, fleet bool
}

// generate writes a workload's inputs for seed under dir.
func generate(dir string, seed int64, sh Shape, want parts) (*Inputs, error) {
	in := &Inputs{
		Dir: dir, Shape: sh,
		TrainDir: map[string]string{}, DeltaDir: map[string]string{},
		FleetDir: map[string]string{}, ChangedDir: map[string]string{},
		FleetDefects: map[string][]inject.Injection{},
		Victims:      map[string][]Victim{},
	}
	for _, app := range apps {
		if want.training {
			imgs, err := corpus.Training(app, sh.Training[app], subSeed(seed, app+"/train"))
			if err != nil {
				return nil, err
			}
			in.TrainDir[app] = filepath.Join(dir, "train", app)
			if err := sysimage.SaveDir(in.TrainDir[app], imgs); err != nil {
				return nil, err
			}
		}
		if want.delta {
			in.DeltaDir[app] = filepath.Join(dir, "delta", app)
			if err := writeClean(in.DeltaDir[app], app, "delta", sh.DeltaPool, subSeed(seed, app+"/delta")); err != nil {
				return nil, err
			}
		}
		if want.victims {
			vs, err := writeVictims(filepath.Join(dir, "victims", app), app, sh, subSeed(seed, app+"/victims"))
			if err != nil {
				return nil, err
			}
			in.Victims[app] = vs
		}
		if want.fleet {
			in.FleetDir[app] = filepath.Join(dir, "fleet", app)
			if err := writeFleet(in, app, sh, subSeed(seed, app+"/fleet")); err != nil {
				return nil, err
			}
			in.ChangedDir[app] = filepath.Join(dir, "changed", app)
			if err := writeClean(in.ChangedDir[app], app, "changed", sh.Changed, subSeed(seed, app+"/changed")); err != nil {
				return nil, err
			}
		}
	}
	return in, nil
}

// writeClean writes n clean running-instance images named <app>-<tag>-NNN.
func writeClean(dir, app, tag string, n int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	imgs := make([]*sysimage.Image, n)
	for i := range imgs {
		img, err := corpus.BuildApp(app, fmt.Sprintf("%s-%s-%03d", app, tag, i), rng, true)
		if err != nil {
			return err
		}
		imgs[i] = img
	}
	return sysimage.SaveDir(dir, imgs)
}

// writeVictims writes the injected-victim pool and returns it with its
// encoded bodies.
func writeVictims(dir, app string, sh Shape, seed int64) ([]Victim, error) {
	rng := rand.New(rand.NewSource(seed))
	inj := inject.New(seed)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	out := make([]Victim, 0, sh.Victims)
	for i := 0; i < sh.Victims; i++ {
		img, err := corpus.BuildApp(app, fmt.Sprintf("%s-victim-%03d", app, i), rng, true)
		if err != nil {
			return nil, err
		}
		log, err := inj.Inject(img, app, sh.VictimErrors)
		if err != nil {
			return nil, fmt.Errorf("victim %s: %w", img.ID, err)
		}
		body, err := img.MarshalJSONIndent()
		if err != nil {
			return nil, err
		}
		path := filepath.Join(dir, img.ID+".json")
		if err := os.WriteFile(path, body, 0o644); err != nil {
			return nil, err
		}
		out = append(out, Victim{Path: path, Body: body, Injections: log})
	}
	return out, nil
}

// writeFleet writes sh.Fleet distinct images for app, every
// FleetDefectEvery-th of them (in a seeded order) with one injected
// error.
func writeFleet(in *Inputs, app string, sh Shape, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	inj := inject.New(seed)
	dir := in.FleetDir[app]
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defective := map[int]bool{}
	for k, i := range rng.Perm(sh.Fleet) {
		if k%sh.FleetDefectEvery == 0 {
			defective[i] = true
		}
	}
	for i := 0; i < sh.Fleet; i++ {
		img, err := corpus.BuildApp(app, fmt.Sprintf("%s-host-%05d", app, i), rng, true)
		if err != nil {
			return err
		}
		path := filepath.Join(dir, img.ID+".json")
		if defective[i] {
			log, err := inj.Inject(img, app, 1)
			if err != nil {
				return fmt.Errorf("fleet %s: %w", img.ID, err)
			}
			in.FleetDefects[path] = log
		}
		body, err := img.MarshalJSONIndent()
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, body, 0o644); err != nil {
			return err
		}
	}
	return nil
}
