package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"genax/internal/core"
	"genax/internal/dna"
)

// AlignResponse is the JSON body answering POST /align/{genome}.
type AlignResponse struct {
	// Aligned reports whether the read mapped at or above MinScore.
	Aligned bool `json:"aligned"`
	// Pos is the 0-based reference position of the alignment start
	// (omitted when unaligned).
	Pos int `json:"pos,omitempty"`
	// Score is the affine-gap alignment score.
	Score int `json:"score,omitempty"`
	// Cigar is the edit trace, query-complete.
	Cigar string `json:"cigar,omitempty"`
	// Reverse reports a reverse-complement-strand alignment.
	Reverse bool `json:"reverse,omitempty"`
}

// buildMux wires the HTTP surface. Request bodies are raw base strings
// (ACGT…, whitespace tolerated) — one read per request is exactly the
// traffic shape the coalescing layer exists to amortize.
func (s *Server) buildMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /align/{genome}", s.handleAlign)
	mux.HandleFunc("GET /statsz", s.handleStatsz)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

func (s *Server) handleAlign(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("genome")
	if _, ok := s.batchers[name]; !ok {
		http.Error(w, fmt.Sprintf("unknown genome %q", name), http.StatusNotFound)
		return
	}
	if s.draining.Load() {
		http.Error(w, "server is draining", http.StatusServiceUnavailable)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, int64(s.cfg.MaxReadBytes)))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("read longer than %d bytes", tooBig.Limit), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	read, err := dna.ParseSeq(strings.TrimSpace(string(body)))
	if err != nil || len(read) == 0 {
		http.Error(w, "body must be a non-empty base string (ACGT...)", http.StatusBadRequest)
		return
	}
	p := pending{ctx: r.Context(), read: read, res: make(chan result, 1)}
	if !s.batchers[name].enqueue(p) {
		s.reject(w)
		return
	}
	var res result
	select {
	case res = <-p.res:
	case <-r.Context().Done():
		// The dispatcher still owns p and will deliver into the buffered
		// channel; nothing leaks. The client just stopped caring.
		s.writeContextErr(w, r.Context().Err())
		return
	}
	switch {
	case res.err == nil:
		writeAlignResponse(w, res.rr)
	case errors.Is(res.err, ErrUnknownGenome):
		http.Error(w, res.err.Error(), http.StatusNotFound)
	case errors.Is(res.err, context.DeadlineExceeded) || errors.Is(res.err, context.Canceled):
		s.writeContextErr(w, res.err)
	default:
		http.Error(w, res.err.Error(), http.StatusInternalServerError)
	}
}

// reject sheds one request: 429 with the configured Retry-After hint, the
// admission layer's promise that overload costs the client a retry, not
// the server its memory.
func (s *Server) reject(w http.ResponseWriter) {
	secs := int(s.cfg.RetryAfter.Seconds())
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	http.Error(w, "server overloaded, retry later", http.StatusTooManyRequests)
}

// writeContextErr maps a request context failure to the HTTP status the
// client can act on: 504 for its own deadline, 503 for a cancellation
// (client went away, or the server closed while its genome was loading).
func (s *Server) writeContextErr(w http.ResponseWriter, err error) {
	code := http.StatusServiceUnavailable
	if errors.Is(err, context.DeadlineExceeded) {
		code = http.StatusGatewayTimeout
	}
	http.Error(w, err.Error(), code)
}

func writeAlignResponse(w http.ResponseWriter, rr core.ReadResult) {
	resp := AlignResponse{Aligned: rr.Aligned}
	if rr.Aligned {
		resp.Pos = rr.Result.RefPos
		resp.Score = rr.Result.Score
		resp.Cigar = rr.Result.Cigar.String()
		resp.Reverse = rr.Result.Reverse
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.Snapshot())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, "ok\n")
}
