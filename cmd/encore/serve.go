// The serve subcommand: a resident scan daemon. Instead of paying
// learn-or-load per invocation like check/scan, serve loads compiled
// plans once into a versioned in-memory registry and answers scan
// requests over HTTP until signalled to stop:
//
//	encore serve -plans DIR [-addr HOST:PORT] [-alerts POLICY.yaml] [-shutdown-timeout DUR]
//
//	POST /v1/scan/{app}       scan an image (JSON body, or ?path=FILE)
//	POST /v1/profiles/{app}   hot-swap a plan (binary plan or profile JSON)
//	GET  /v1/status           registry versions + rolling latency quantiles
//	GET  /v1/alerts           recent severity-routed alerts with delivery outcomes
//	GET  /healthz /readyz     liveness / readiness
//	GET  /metrics /snapshot   Prometheus text / JSON telemetry snapshot
//
// SIGHUP re-scans -plans and swaps every loadable plan in place; SIGTERM
// and SIGINT drain in-flight requests (bounded by -shutdown-timeout),
// flush the final telemetry snapshot, and exit 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	encore "repro"
	"repro/internal/alert"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

func runServe(args []string) (err error) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (use :0 for a random port)")
	alertsFile := fs.String("alerts", "", "alerting policy YAML; findings fan out to its notifiers (see examples/alerts.yaml)")
	addrFile := fs.String("addr-file", "", "write the bound address to this file once listening (process managers, tests)")
	plansDir := fs.String("plans", "", "directory of <app>.plan compiled plans to preload; SIGHUP re-scans it")
	shutdownTimeout := fs.Duration("shutdown-timeout", 10*time.Second, "max time to drain in-flight requests on SIGTERM/SIGINT")
	customFile := fs.String("custom", "", "customization file applied when compiling uploaded profiles")
	statsJSON := fs.String("stats-json", "", "write the final JSON telemetry snapshot here on shutdown (- for stdout)")
	sampleEvery := fs.Duration("sample-every", telemetry.DefaultSampleInterval, "runtime sampler cadence (heap, GC, goroutines)")
	logFormat := fs.String("log", "text", "structured log format: "+telemetry.LogFormats)
	logLevel := fs.String("log-level", "info", "structured log level: debug|info|warn|error")
	spanCap := fs.Int("span-cap", 8192, "max request spans retained in memory (oldest half shed on overflow)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	log, err := telemetry.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		return err
	}
	rec := telemetry.New()
	rec.SetPhase("serve")
	rec.SetBuildInfo(version)
	rec.SetSpanCap(*spanCap)
	sampler := telemetry.NewSampler(*sampleEvery, 0)
	rec.AttachSampler(sampler)
	sampler.Start()
	defer sampler.Stop()

	fw, err := newFramework(*customFile)
	if err != nil {
		return err
	}
	fw.SetTelemetry(rec)
	fw.SetLogger(log)
	loadProfile := func(data []byte) (*encore.Plan, error) {
		p, err := encore.LoadProfile(data)
		if err != nil {
			return nil, err
		}
		return fw.CompilePlanFromProfile(p), nil
	}

	var alerts *alert.Pipeline
	if *alertsFile != "" {
		policy, err := alert.LoadPolicyFile(*alertsFile)
		if err != nil {
			return err
		}
		alerts, err = alert.NewPipeline(alert.Options{Policy: policy, Rec: rec, Log: log})
		if err != nil {
			return err
		}
		log.Info("alerting enabled", "policy", *alertsFile,
			"notifiers", len(policy.Notifiers), "rules", len(policy.Rules))
	}

	// Take over the signals before the listener exists: from serve.New on,
	// /readyz can answer and -addr-file announces the daemon, and a
	// SIGTERM landing after that must drain, not kill the process. Signals
	// that arrive during the plan preload wait in the channel.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	defer signal.Stop(sigs)

	d, err := serve.New(serve.Options{
		Addr:        *addr,
		Rec:         rec,
		Log:         log,
		LoadPlan:    fw.LoadPlan,
		LoadProfile: loadProfile,
		Version:     version,
		Alerts:      alerts,
	})
	if err != nil {
		// The daemon never started, so nothing will drain the pipeline.
		alerts.Shutdown(context.Background())
		return err
	}
	defer d.Close()

	if *plansDir != "" {
		n, err := d.Registry().LoadDir(*plansDir, fw.LoadPlan)
		if err != nil {
			if n == 0 {
				return err
			}
			log.Warn("some plans failed to load", "dir", *plansDir, "loaded", n, "err", err)
		}
		log.Info("plans preloaded", "dir", *plansDir, "loaded", n)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(d.Addr()+"\n"), 0o644); err != nil {
			return err
		}
	}
	log.Info("scan daemon listening", "addr", d.Addr(), "version", version,
		"apps", d.Registry().Len(),
		"endpoints", "/v1/scan /v1/profiles /v1/status /v1/alerts /healthz /readyz /metrics")

	for sig := range sigs {
		if sig == syscall.SIGHUP {
			if *plansDir == "" {
				log.Warn("SIGHUP ignored: no -plans directory to re-scan")
				continue
			}
			n, err := d.Registry().LoadDir(*plansDir, fw.LoadPlan)
			if err != nil {
				log.Warn("plan re-scan failed", "dir", *plansDir, "loaded", n, "err", err)
				continue
			}
			log.Info("plans reloaded", "dir", *plansDir, "loaded", n)
			continue
		}
		log.Info("shutdown signal received", "signal", sig.String(),
			"timeout", shutdownTimeout.String())
		break
	}

	// Graceful drain: readiness flips first, in-flight requests finish
	// bounded by the timeout, then the final snapshot is flushed.
	ctx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		log.Warn("drain incomplete, connections closed", "err", err)
	}
	if alerts != nil {
		s := alerts.Stats()
		log.Info("alert pipeline drained", "published", s.Published,
			"delivered", s.Delivered, "failed", s.Failed,
			"dropped", s.Dropped, "suppressed", s.Suppressed)
	}
	sampler.Stop()
	rec.SetPhase("done")
	if *statsJSON != "" {
		if err := rec.Snapshot().WriteJSON(*statsJSON); err != nil {
			return err
		}
	}
	log.Info("scan daemon stopped", "addr", d.Addr())
	return nil
}

// printVersion implements `encore -version`: the -ldflags-stamped build
// version (also exposed as encore_build_info on /metrics) plus toolchain.
func printVersion() {
	fmt.Printf("encore %s %s\n", version, goVersion())
}
