package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// ServerConfig selects what the observability HTTP server exposes.
// Registry enables /metrics and /metrics.json; Bus enables the /events
// stream; Progress enables the /progress snapshot. /healthz, /buildinfo
// and /dashboard are always mounted.
type ServerConfig struct {
	Registry *Registry
	Bus      *Bus
	Progress *Tracker
}

// Serve starts the observability HTTP server on addr:
//
//	/metrics       Prometheus text exposition
//	/metrics.json  JSON registry snapshot
//	/events        NDJSON (or SSE) live event stream with replay
//	/progress      JSON progress snapshot
//	/dashboard     self-contained live HTML dashboard
//	/healthz       liveness probe
//	/buildinfo     module, VCS and toolchain identity
//
// The server runs until Close/Shutdown. Endpoints whose backing component
// is absent from cfg respond 404.
func Serve(addr string, cfg ServerConfig) (*MetricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: metrics listener: %w", err)
	}
	mux := http.NewServeMux()
	if cfg.Registry != nil {
		mux.Handle("/metrics", cfg.Registry.Handler())
		mux.Handle("/metrics.json", cfg.Registry.Handler())
	}
	mux.HandleFunc("/healthz", healthzHandler)
	mux.HandleFunc("/buildinfo", buildinfoHandler)
	mux.Handle("/dashboard", dashboardHandler())
	if cfg.Bus != nil {
		mux.Handle("/events", eventsHandler(cfg.Bus))
	}
	if cfg.Progress != nil {
		mux.Handle("/progress", progressHandler(cfg.Progress))
	}
	m := &MetricsServer{
		srv:  &http.Server{Handler: mux},
		addr: ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(m.done)
		_ = m.srv.Serve(ln)
	}()
	return m, nil
}

// healthzHandler is the liveness probe: serving implies alive.
func healthzHandler(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte("ok\n"))
}

// BuildInfo is the /buildinfo document.
type BuildInfo struct {
	GoVersion string `json:"go_version"`
	Path      string `json:"path,omitempty"`
	Module    string `json:"module,omitempty"`
	Version   string `json:"version,omitempty"`
	// Settings carries the embedded build settings (VCS revision, time,
	// dirty flag, GOOS/GOARCH, …) when the binary has them.
	Settings map[string]string `json:"settings,omitempty"`
}

// CollectBuildInfo reports the binary's identity from the embedded
// runtime/debug build info (tests and go-run binaries degrade to the
// toolchain version alone). It backs both /buildinfo and the flight
// recorder's buildinfo.json.
func CollectBuildInfo() BuildInfo {
	info := BuildInfo{GoVersion: runtime.Version()}
	if bi, ok := debug.ReadBuildInfo(); ok {
		info.Path = bi.Path
		info.Module = bi.Main.Path
		info.Version = bi.Main.Version
		if len(bi.Settings) > 0 {
			info.Settings = make(map[string]string, len(bi.Settings))
			for _, s := range bi.Settings {
				info.Settings[s.Key] = s.Value
			}
		}
	}
	return info
}

// buildinfoHandler serves CollectBuildInfo.
func buildinfoHandler(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, CollectBuildInfo())
}

// progressHandler serves the tracker's live snapshot.
func progressHandler(t *Tracker) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, t.Snapshot())
	})
}

// eventsHandler streams the bus. Default framing is NDJSON (one BusEvent
// document per line); Server-Sent Events framing (id:/data: records,
// suitable for EventSource) is selected by Accept: text/event-stream or
// ?sse=1. Replay: ?from=N resumes from sequence number N (0 = everything
// the replay ring still holds); an SSE reconnect's Last-Event-ID header
// does the same implicitly. The stream runs until the client disconnects
// or the server shuts down; a slow client only ever loses events from its
// own bounded buffer (visible in the bus's dropped counter), never stalls
// a publisher.
func eventsHandler(b *Bus) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		flusher, ok := w.(http.Flusher)
		if !ok {
			http.Error(w, "streaming unsupported", http.StatusInternalServerError)
			return
		}
		sse := req.URL.Query().Get("sse") == "1" ||
			strings.Contains(req.Header.Get("Accept"), "text/event-stream")
		var from uint64
		if v := req.URL.Query().Get("from"); v != "" {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				http.Error(w, "bad from parameter", http.StatusBadRequest)
				return
			}
			from = n
		} else if id := req.Header.Get("Last-Event-ID"); id != "" {
			if n, err := strconv.ParseUint(id, 10, 64); err == nil {
				from = n + 1
			}
		}
		// Subscribe before the headers go out, so a client whose request
		// has returned is already counted and sees every later event.
		sub := b.Subscribe(from, 1024)
		defer sub.Close()
		if sse {
			w.Header().Set("Content-Type", "text/event-stream")
			w.Header().Set("Cache-Control", "no-cache")
		} else {
			w.Header().Set("Content-Type", "application/x-ndjson")
		}
		w.WriteHeader(http.StatusOK)
		flusher.Flush()
		for {
			ev, ok := sub.Next(req.Context())
			if !ok {
				return
			}
			line, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			if sse {
				if _, err := fmt.Fprintf(w, "id: %d\ndata: %s\n\n", ev.Seq, line); err != nil {
					return
				}
			} else {
				if _, err := fmt.Fprintf(w, "%s\n", line); err != nil {
					return
				}
			}
			flusher.Flush()
		}
	})
}
