// Package cli holds helpers shared by the command-line tools under cmd/.
//
// Its centerpiece is the telemetry flag trio every tool exposes:
//
//	-trace <file>       write a JSON trace (span tree + Chrome events +
//	                    metrics snapshot) at exit
//	-log-level <level>  mirror pipeline events to stderr via log/slog
//	                    (debug, info, warn, error)
//	-metrics-addr <a>   serve the observability endpoints on a for the
//	                    lifetime of the run: /metrics, /metrics.json,
//	                    /events (NDJSON/SSE stream), /progress, the live
//	                    /dashboard, /healthz and /buildinfo
//	-watch              stream NDJSON progress events to stderr (with
//	                    -metrics-addr the stream is served over HTTP
//	                    instead, and the dashboard is the front door)
//	-flight-record <d>  write a self-contained flight-recorder bundle into
//	                    directory d at exit: trace, merged Chrome trace,
//	                    metrics, progress, event tail, buildinfo, plus any
//	                    attached artifacts such as the decision ledger
//
// plus the pprof trio -cpuprofile, -memprofile and -profile-dir (the last
// writes one CPU profile per pipeline stage, keyed to the stage span
// names). An Observer is only constructed when at least one flag is given,
// so the default invocation of every tool stays on the uninstrumented fast
// path.
package cli

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"

	"repro/internal/obs"
)

// ObsFlags owns the shared telemetry flags and the observer lifecycle they
// configure. Register with RegisterObsFlags, read Observer after parsing,
// and defer Finish.
type ObsFlags struct {
	tracePath   string
	logLevel    string
	metricsAddr string
	cpuProfile  string
	memProfile  string
	profileDir  string
	watch       bool
	flightDir   string

	errw      io.Writer
	observer  *obs.Observer
	server    *obs.MetricsServer
	profiler  *obs.Profiler
	bus       *obs.Bus
	tracker   *obs.Tracker
	flight    *obs.FlightRecorder
	watchSub  *obs.Subscriber
	watchDone chan struct{}
}

// RegisterObsFlags binds -trace, -log-level and -metrics-addr onto fs.
// Diagnostics (the metrics listen address, trace-write confirmations) go to
// errw; pass nil for os.Stderr.
func RegisterObsFlags(fs *flag.FlagSet, errw io.Writer) *ObsFlags {
	if errw == nil {
		errw = os.Stderr
	}
	f := &ObsFlags{errw: errw}
	fs.StringVar(&f.tracePath, "trace", "", "write a JSON telemetry trace (spans, events, metrics) to this file at exit")
	fs.StringVar(&f.logLevel, "log-level", "", "mirror telemetry to stderr at this level: debug, info, warn, error")
	fs.StringVar(&f.metricsAddr, "metrics-addr", "", "serve Prometheus metrics on this address (e.g. :9090) during the run")
	fs.StringVar(&f.cpuProfile, "cpuprofile", "", "write a whole-run CPU profile to this file")
	fs.StringVar(&f.memProfile, "memprofile", "", "write a heap profile to this file at exit")
	fs.StringVar(&f.profileDir, "profile-dir", "", "write one CPU profile per pipeline stage into this directory (excludes -cpuprofile)")
	fs.BoolVar(&f.watch, "watch", false, "stream NDJSON progress events to stderr (served over HTTP instead when -metrics-addr is set)")
	fs.StringVar(&f.flightDir, "flight-record", "", "write a self-contained flight-recorder bundle (trace, metrics, progress, event tail, buildinfo) into this directory at exit")
	return f
}

// Enabled reports whether any telemetry flag was set.
func (f *ObsFlags) Enabled() bool {
	return f != nil && (f.tracePath != "" || f.logLevel != "" || f.metricsAddr != "" ||
		f.cpuProfile != "" || f.memProfile != "" || f.profileDir != "" || f.watch ||
		f.flightDir != "")
}

// Bus returns the streaming event bus, non-nil once Observer has run with
// -watch or -metrics-addr set. Tools pass it to the campaign fabric
// (fabric.Config, fabric.WorkerConfig); spans, and the progress events of
// campaigns, searches and certifications, reach it through the observer.
func (f *ObsFlags) Bus() *obs.Bus {
	if f == nil {
		return nil
	}
	return f.bus
}

// Observer lazily constructs the observer the flags describe. It returns
// (nil, nil) when no telemetry flag was given — the fast path — and starts
// the metrics server as a side effect when -metrics-addr was set.
func (f *ObsFlags) Observer() (*obs.Observer, error) {
	if !f.Enabled() {
		return nil, nil
	}
	if f.observer != nil {
		return f.observer, nil
	}
	var opts []obs.Option
	if f.logLevel != "" {
		var lvl slog.Level
		if err := lvl.UnmarshalText([]byte(f.logLevel)); err != nil {
			return nil, fmt.Errorf("bad -log-level %q: %w", f.logLevel, err)
		}
		h := slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})
		opts = append(opts, obs.WithLogger(slog.New(h)))
	}
	if f.cpuProfile != "" || f.memProfile != "" || f.profileDir != "" {
		p, err := obs.NewProfiler(f.cpuProfile, f.memProfile, f.profileDir)
		if err != nil {
			return nil, err
		}
		if err := p.Start(); err != nil {
			return nil, err
		}
		f.profiler = p
		opts = append(opts, obs.WithProfiler(p))
	}
	if f.watch || f.metricsAddr != "" || f.flightDir != "" {
		// -flight-record needs the bus and tracker too: the bundle's
		// event tail and progress snapshot come from them.
		f.bus = obs.NewBus(0)
		f.tracker = obs.NewTracker(f.bus)
		opts = append(opts, obs.WithBus(f.bus))
	}
	f.observer = obs.New(opts...)
	if f.flightDir != "" {
		f.flight = obs.NewFlightRecorder(f.observer, f.bus, f.tracker)
	}
	if f.metricsAddr != "" {
		srv, err := obs.Serve(f.metricsAddr, obs.ServerConfig{
			Registry: f.observer.Metrics(),
			Bus:      f.bus,
			Progress: f.tracker,
		})
		if err != nil {
			return nil, fmt.Errorf("metrics server: %w", err)
		}
		f.server = srv
		fmt.Fprintf(f.errw, "metrics: serving on http://%s/metrics (live dashboard at /dashboard)\n", srv.Addr())
	} else if f.watch {
		// No HTTP surface: tail the bus onto stderr as NDJSON. Mirrored
		// span events (kind "event") are skipped — the high-volume raw
		// feed belongs to /events; stderr gets the progress skeleton.
		f.watchSub = f.bus.Subscribe(0, 1024)
		f.watchDone = make(chan struct{})
		go func(sub *obs.Subscriber, w io.Writer) {
			defer close(f.watchDone)
			enc := json.NewEncoder(w)
			for {
				ev, ok := sub.Next(nil)
				if !ok {
					return
				}
				if ev.Kind == "event" {
					continue
				}
				_ = enc.Encode(ev)
			}
		}(f.watchSub, f.errw)
	}
	return f.observer, nil
}

// FlightFile registers an external artifact (e.g. the decision ledger)
// for inclusion in the flight-recorder bundle under the given name. No-op
// unless -flight-record is active; call it after the artifact's path is
// known — the file is read at Finish time.
func (f *ObsFlags) FlightFile(name, path string) {
	if f == nil || f.flight == nil || path == "" {
		return
	}
	f.flight.AttachFile(name, path)
}

// WatchContext ties the metrics server's lifetime to ctx: when the run's
// context dies (-timeout deadline, SIGINT/SIGTERM), the server is closed so
// the process can exit instead of leaving the listener's goroutine serving
// forever. No-op when -metrics-addr was not given. Call after Observer and
// pass the context from RunContext; Finish remains the normal-exit path and
// is safe to run afterwards (Close is idempotent).
func (f *ObsFlags) WatchContext(ctx context.Context) {
	if f == nil || f.server == nil {
		return
	}
	srv := f.server
	go func() {
		<-ctx.Done()
		_ = srv.Close()
	}()
}

// Finish flushes the telemetry the run accumulated: the trace file is
// written (when -trace was given) and the metrics server shut down. Safe to
// call when telemetry is off, and safe to defer before Observer.
func (f *ObsFlags) Finish() error {
	if f == nil {
		return nil
	}
	var firstErr error
	if f.profiler != nil {
		if err := f.profiler.Stop(); err != nil {
			firstErr = err
		}
		f.profiler = nil
	}
	if f.watchSub != nil {
		f.watchSub.Close()
		<-f.watchDone
		f.watchSub = nil
	}
	if f.server != nil {
		if err := f.server.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		f.server = nil
	}
	if f.observer != nil && f.tracePath != "" {
		file, err := os.Create(f.tracePath)
		if err != nil {
			return err
		}
		if err := f.observer.WriteTrace(file); err != nil {
			file.Close()
			return err
		}
		if err := file.Close(); err != nil {
			return err
		}
		fmt.Fprintf(f.errw, "trace: wrote %s\n", f.tracePath)
	}
	if f.flight != nil {
		man, err := f.flight.Write(f.flightDir)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
		} else {
			fmt.Fprintf(f.errw, "flight: wrote %s (%d files, %d events, %d remote spans)\n",
				f.flightDir, len(man.Files), man.Events, man.RemoteSpans)
		}
		f.flight = nil
	}
	return firstErr
}
