package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
)

// queueFullRetryAfter is the Retry-After value, in seconds, of a submission
// refused because the job queue is full.
const queueFullRetryAfter = "5"

// Handler returns the daemon's HTTP API:
//
//	POST /jobs              submit a JobRequest, returns the JobStatus
//	                        (429 with Retry-After while the queue is full)
//	GET  /jobs              list every job's status
//	GET  /jobs/{id}         one job's status
//	GET  /jobs/{id}/result  a finished job's JobResult (409 while running)
//	GET  /jobs/{id}/stream  the job's progression as NDJSON (tails until done)
//	POST /jobs/{id}/cancel  cancel a queued or running job
//	GET  /stats             shared-cache and queue statistics
//	GET  /healthz           liveness probe
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the connection is gone if this fails
}

// writeError writes a JSON error envelope.
func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: decoding job request: %w", err))
		return
	}
	st, err := s.Submit(req)
	if errors.Is(err, ErrQueueFull) {
		w.Header().Set("Retry-After", queueFullRetryAfter)
		writeError(w, http.StatusTooManyRequests, err)
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.List())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Status(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	res, ok, err := s.Result(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown job %q", r.PathValue("id")))
		return
	}
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// streamEnd is the terminal NDJSON line of a job stream.
type streamEnd struct {
	State State  `json:"state"`
	Error string `json:"error,omitempty"`
	Rows  int    `json:"rows"`
}

// handleStream writes the job's progression rows as NDJSON — one
// experiments.ProgressRow object per line, flushed as they arrive — and
// finishes with a streamEnd line once the job reaches a terminal state.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.Status(id); !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown job %q", id))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	from := 0
	for {
		rows, state, changed, ok := s.RowsSince(id, from)
		if !ok {
			return
		}
		for _, row := range rows {
			if err := enc.Encode(row); err != nil {
				return
			}
		}
		from += len(rows)
		if flusher != nil {
			flusher.Flush()
		}
		if state.Terminal() {
			st, _ := s.Status(id)
			_ = enc.Encode(streamEnd{State: state, Error: st.Error, Rows: from})
			if flusher != nil {
				flusher.Flush()
			}
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-changed:
		}
	}
}
