package plan

import (
	"encoding/json"
	"errors"
	"net/http"
)

// Handler returns the daemon's HTTP API:
//
//	GET  /plan    — the current PlanView
//	POST /tick    — feed the next trace hour (body: TickRequest), returns
//	                the updated PlanView
//	POST /whatif  — price a hypothetical siting (body: WhatIfRequest),
//	                returns a WhatIfResponse
//	GET  /healthz — liveness: "ok\n" while the daemon accepts work
//
// All bodies and responses are JSON.  The handler is safe for concurrent
// use; /plan and /whatif never wait on an in-flight solve.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/plan", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			methodNotAllowed(w, http.MethodGet)
			return
		}
		view := d.PlanView()
		writeJSON(w, http.StatusOK, &view)
	})
	mux.HandleFunc("/tick", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			methodNotAllowed(w, http.MethodPost)
			return
		}
		var req TickRequest
		if !readJSON(w, r, &req) {
			return
		}
		view, err := d.Tick(req)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, &view)
	})
	mux.HandleFunc("/whatif", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			methodNotAllowed(w, http.MethodPost)
			return
		}
		var req WhatIfRequest
		if !readJSON(w, r, &req) {
			return
		}
		resp, err := d.WhatIf(req)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, &resp)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if err := d.ctx.Err(); err != nil {
			http.Error(w, "shutting down", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	return mux
}

// maxBodyBytes caps a request body.  A tick names at most one scale per
// datacenter and a what-if a list of candidate sites, so real requests are
// a few kilobytes; the cap keeps a hostile client from streaming the daemon
// out of memory.
const maxBodyBytes = 1 << 20

// readJSON decodes a request body, answering 413 on a body over
// maxBodyBytes and 400 on malformed input.
func readJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, map[string]string{"error": err.Error()})
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError maps daemon errors to HTTP statuses: shutdown → 503, unknown
// session → 404, everything else (bad scales, unknown sites) → 400.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrShuttingDown):
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrNoSession):
		status = http.StatusNotFound
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func methodNotAllowed(w http.ResponseWriter, allow string) {
	w.Header().Set("Allow", allow)
	writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "method not allowed"})
}
