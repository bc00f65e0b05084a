// Package api is the HTTP transport of the sort service: a stdlib
// net/http handler over the internal/server engine.  Routes:
//
//	POST /v1/jobs             submit a JobSpec (tenant from X-Tenant)
//	GET  /v1/jobs/{id}        job status
//	GET  /v1/jobs/{id}/result sorted keys, one per line, streamed in 32 KiB blocks
//	GET  /v1/metrics          server counters, pool stats, per-job documents
//	GET  /healthz             liveness
//
// Errors are JSON bodies shaped like server.Reject; 429 responses carry a
// Retry-After header.  The package holds no state of its own — everything
// lives in the engine — so handlers are thin and the whole cycle is
// testable with net/http/httptest.
//
// The two codecs that carry key volume have fast paths; the wire is the one
// encoding/json and strconv define.  A submit body is read whole and
// decoded by server.DecodeJobSpec: a body that opens with {"keys":[ and
// holds only canonical unsigned decimals there — what json.Marshal of a
// JobSpec and `dhsort submit` send — has its array parsed without
// reflection; every other body, and every rejected one, is decoded whole by
// encoding/json (unknown fields rejected), so status codes and error bodies
// are that decoder's.  Result lines are strconv.AppendUint plus '\n'.
package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"dhsort/internal/server"
)

// maxBodyBytes bounds a submission body; 64 MiB comfortably fits the
// engine's MaxN inline keys as JSON.
const maxBodyBytes = 64 << 20

// Handler returns the service's HTTP handler over engine s.
func Handler(s *server.Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		submit(s, w, r)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		status(s, w, r)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		result(s, w, r)
	})
	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.MetricsSnapshot())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// A draining instance stays live (it is finishing admitted work)
		// but reports the state so balancers stop routing submissions at it.
		if s.Draining() {
			writeJSON(w, http.StatusOK, map[string]string{"status": "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

// bodyReadTimeout bounds the time a submit may take to deliver its body: a
// client that declares a body and then trickles it, or sends none, is
// answered and its connection closed instead of holding a handler goroutine
// and up to a presized read buffer indefinitely.  At maxBodyBytes it asks
// for about 1 MB/s.  Only the submit body is bounded: /result streams and
// idle keep-alive connections keep their own rules.
var bodyReadTimeout = time.Minute

func submit(s *server.Server, w http.ResponseWriter, r *http.Request) {
	// A writer that cannot take deadlines (httptest's recorder) reads
	// without one.
	rc := http.NewResponseController(w)
	_ = rc.SetReadDeadline(time.Now().Add(bodyReadTimeout))
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	spec, err := server.DecodeJobSpec(body, int(r.ContentLength))
	if err != nil {
		// The deadline stays: net/http reads what is left of a short body
		// before it answers, and an expired deadline fails that read at
		// once, which closes the connection after the reply.
		var big *http.MaxBytesError
		if errors.As(err, &big) {
			writeErr(w, &server.Reject{HTTPStatus: http.StatusRequestEntityTooLarge,
				Reason: "too_large", Detail: fmt.Sprintf("job body exceeds the server limit of %d bytes", big.Limit)})
			return
		}
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			writeErr(w, &server.Reject{HTTPStatus: http.StatusRequestTimeout,
				Reason: "body_timeout", Detail: fmt.Sprintf("job body not received within %v", bodyReadTimeout)})
			return
		}
		writeErr(w, &server.Reject{HTTPStatus: http.StatusBadRequest,
			Reason: "bad_request", Detail: "invalid job body: " + err.Error()})
		return
	}
	_ = rc.SetReadDeadline(time.Time{})
	st, err := s.Submit(r.Header.Get("X-Tenant"), spec)
	if err != nil {
		writeReject(w, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+st.ID)
	writeJSON(w, http.StatusAccepted, st)
}

func status(s *server.Server, w http.ResponseWriter, r *http.Request) {
	st, ok := s.Status(r.PathValue("id"))
	if !ok {
		writeErr(w, &server.Reject{HTTPStatus: http.StatusNotFound,
			Reason: "not_found", Detail: fmt.Sprintf("no job %q", r.PathValue("id"))})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// resultBlock is the size of the blocks result hands to the
// ResponseWriter, and maxLine the longest line it formats (20 digits of
// MaxUint64 and the newline): one Write per block, not per key, keeps
// net/http's per-call framing and the write syscalls off the per-key path.
const (
	resultBlock = 32 << 10
	maxLine     = 21
)

// result streams the sorted keys as text, one decimal key per line, so a
// client never has to hold a giant JSON array; the job metadata rides in
// X-Job-* headers.
func result(s *server.Server, w http.ResponseWriter, r *http.Request) {
	keys, st, err := s.Result(r.PathValue("id"))
	if err != nil {
		writeReject(w, err)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/plain; charset=utf-8")
	h.Set("X-Job-Id", st.ID)
	h.Set("X-Job-N", strconv.Itoa(st.N))
	h.Set("X-Job-Verified", strconv.FormatBool(st.Verified))
	w.WriteHeader(http.StatusOK)
	_ = writeKeys(w, keys) // an error means the client went away mid-stream
}

// writeKeys writes keys to w one decimal key per line, formatted into one
// reused block and written a block at a time.
func writeKeys(w io.Writer, keys []uint64) error {
	buf := make([]byte, 0, resultBlock)
	for i, k := range keys {
		buf = append(strconv.AppendUint(buf, k, 10), '\n')
		if len(buf) > resultBlock-maxLine || i == len(keys)-1 {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	return nil
}

// writeReject maps an engine error onto the wire: *Reject verbatim,
// anything else a 500.
func writeReject(w http.ResponseWriter, err error) {
	var rej *server.Reject
	if !errors.As(err, &rej) {
		rej = &server.Reject{HTTPStatus: http.StatusInternalServerError,
			Reason: "internal", Detail: err.Error()}
	}
	writeErr(w, rej)
}

func writeErr(w http.ResponseWriter, rej *server.Reject) {
	if rej.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(rej.RetryAfter))
	}
	writeJSON(w, rej.HTTPStatus, rej)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
