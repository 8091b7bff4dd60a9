package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	encore "repro"
	"repro/internal/corpus"
	"repro/internal/inject"
)

// TestRunServeLifecycle drives the daemon through its whole CLI life:
// preload from a -plans dir, readiness, a scan with findings, per-app
// metrics, SIGHUP plan reload, and SIGTERM graceful shutdown (runServe
// returns nil and flushes -stats-json).
func TestRunServeLifecycle(t *testing.T) {
	// Compile a mysql plan into a plans dir.
	imgs, err := corpus.Training("mysql", 20, 19)
	if err != nil {
		t.Fatal(err)
	}
	fw := encore.New()
	k, err := fw.Learn(imgs)
	if err != nil {
		t.Fatal(err)
	}
	plansDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(plansDir, "mysql.plan"), fw.MarshalPlan(fw.CompilePlan(k)), 0o644); err != nil {
		t.Fatal(err)
	}

	// A victim with injected misconfigurations.
	victims, err := corpus.Training("mysql", 1, 304)
	if err != nil {
		t.Fatal(err)
	}
	victim := victims[0]
	victim.ID = "victim"
	if _, err := inject.New(4).Inject(victim, "mysql", 8); err != nil {
		t.Fatal(err)
	}
	victimJSON, err := victim.MarshalJSONIndent()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	statsFile := filepath.Join(dir, "stats.json")
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- runServe([]string{
			"-addr", "127.0.0.1:0",
			"-addr-file", addrFile,
			"-plans", plansDir,
			"-shutdown-timeout", "5s",
			"-stats-json", statsFile,
			"-log-level", "error",
		})
	}()

	// Wait for the daemon to publish its address.
	var base string
	deadline := time.Now().Add(5 * time.Second)
	for {
		if data, err := os.ReadFile(addrFile); err == nil && len(data) > 0 {
			base = "http://" + strings.TrimSpace(string(data))
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never wrote addr-file")
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after preload = %d", resp.StatusCode)
	}

	// Scan the broken victim through the preloaded plan.
	resp, err = http.Post(base+"/v1/scan/mysql", "application/json", bytes.NewReader(victimJSON))
	if err != nil {
		t.Fatal(err)
	}
	var sr struct {
		PlanVersion string `json:"planVersion"`
		Findings    int    `json:"findings"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || sr.PlanVersion != "v1" || sr.Findings == 0 {
		t.Fatalf("scan = %d %+v", resp.StatusCode, sr)
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`encore_serve_requests_total{app="mysql",code="200"} 1`,
		`encore_serve_scan_seconds_count{app="mysql"} 1`,
		`encore_build_info{go_version=`,
		`encore_serve_plans_loaded 1`,
	} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("live metrics missing %q", want)
		}
	}

	// SIGHUP re-scans the plans dir: same plan file, new registry version.
	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/status")
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Apps []struct {
				Version string `json:"version"`
				Swaps   int64  `json:"swaps"`
			} `json:"apps"`
		}
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err == nil && len(doc.Apps) == 1 && doc.Apps[0].Swaps == 2 {
			if doc.Apps[0].Version != "v2" {
				t.Fatalf("reload version = %q", doc.Apps[0].Version)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("SIGHUP reload never landed")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// SIGTERM: graceful exit with the final snapshot flushed.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("runServe returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("runServe did not exit after SIGTERM")
	}
	stats, err := os.ReadFile(statsFile)
	if err != nil {
		t.Fatalf("final stats snapshot not written: %v", err)
	}
	for _, want := range []string{`"phase": "done"`, `encore_serve_requests_total`, `"labeledHistograms"`} {
		if !strings.Contains(string(stats), want) {
			t.Errorf("stats snapshot missing %q", want)
		}
	}
}

// TestRunServeSIGTERMAtStartup sends SIGTERM the moment -addr-file
// appears, while the daemon is still finishing startup. The handler must
// already be installed: runServe returns nil after a graceful drain and
// flushes the final -stats-json snapshot, instead of the signal's default
// action killing the process.
func TestRunServeSIGTERMAtStartup(t *testing.T) {
	imgs, err := corpus.Training("mysql", 12, 23)
	if err != nil {
		t.Fatal(err)
	}
	fw := encore.New()
	k, err := fw.Learn(imgs)
	if err != nil {
		t.Fatal(err)
	}
	plansDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(plansDir, "mysql.plan"), fw.MarshalPlan(fw.CompilePlan(k)), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	statsFile := filepath.Join(dir, "stats.json")
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- runServe([]string{
			"-addr", "127.0.0.1:0",
			"-addr-file", addrFile,
			"-plans", plansDir,
			"-shutdown-timeout", "5s",
			"-stats-json", statsFile,
			"-log-level", "error",
		})
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(addrFile); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never wrote addr-file")
		}
		time.Sleep(time.Millisecond)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("runServe returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("runServe did not exit after SIGTERM")
	}
	stats, err := os.ReadFile(statsFile)
	if err != nil {
		t.Fatalf("final stats snapshot not written: %v", err)
	}
	for _, want := range []string{`"phase": "done"`, `encore_serve_plans_loaded`} {
		if !strings.Contains(string(stats), want) {
			t.Errorf("stats snapshot missing %q", want)
		}
	}
}
