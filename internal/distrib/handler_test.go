package distrib

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"acic/internal/api"
	"acic/internal/experiments"
)

// TestCoordinatorBodyCap: a claim or complete body over maxBodyBytes is
// refused with a bad_request envelope instead of being decoded, and the
// refused claim does not count as a worker's heartbeat.
func TestCoordinatorBodyCap(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{Config: testSuiteConfig()})
	defer coord.Close()
	big := `{"worker":"` + strings.Repeat("w", maxBodyBytes) + `"}`
	for _, path := range []string{"/api/claim", "/api/complete"} {
		rec := httptest.NewRecorder()
		coord.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(big)))
		resp := rec.Result()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s with a %d-byte body = %d, want 400", path, len(big), resp.StatusCode)
		}
		if e := api.ReadError(resp); e.Code != api.CodeBadRequest || !strings.Contains(e.Message, "too large") {
			t.Errorf("POST %s oversized body: error %+v, want bad_request naming the size cap", path, e)
		}
	}
	if coord.Live() {
		t.Error("an oversized claim made the coordinator live")
	}
}

// FuzzCoordinatorHandler drives arbitrary method/path/body triples
// through the coordinator protocol — the decoders acic-serve exposes on
// its public listener. The handler must never panic, and every non-2xx
// answer must be a well-formed api.Envelope that api.ReadError decodes
// as such (not its synthesized fallback). One batch is queued so claims
// can be granted and completions can settle real cells.
func FuzzCoordinatorHandler(f *testing.F) {
	f.Add("GET", "/api/config", []byte{})
	f.Add("POST", "/api/claim", []byte(`{"worker":"w","idle":2,"want":1}`))
	f.Add("POST", "/api/complete", []byte(`{"worker":"w","batch_id":1,"results":[{"cell":{"app":"media-streaming","scheme":"lru","prefetcher":"fdp"}}]}`))
	f.Fuzz(func(t *testing.T, method, path string, body []byte) {
		coord := NewCoordinator(CoordinatorOptions{Config: testSuiteConfig()})
		defer coord.Close()
		cell := experiments.Cell{App: "media-streaming", Scheme: "lru", Prefetcher: "fdp"}
		coord.Submit(cell.App, []experiments.Cell{cell}, func(experiments.Cell, error) {})

		req := &http.Request{Method: method, URL: &url.URL{Path: path}, Header: http.Header{},
			Body: io.NopCloser(bytes.NewReader(body))}
		rec := httptest.NewRecorder()
		coord.Handler().ServeHTTP(rec, req)
		resp := rec.Result()
		if resp.StatusCode/100 == 2 {
			return
		}
		raw := rec.Body.Bytes()
		var env api.Envelope
		if err := json.Unmarshal(raw, &env); err != nil || env.Err == nil || env.Err.Code == "" {
			t.Fatalf("%q %q -> %d with a non-envelope body %q", method, path, resp.StatusCode, raw)
		}
		resp.Body = io.NopCloser(bytes.NewReader(raw))
		if got := api.ReadError(resp); *got != *env.Err {
			t.Fatalf("api.ReadError = %+v, envelope carries %+v", got, env.Err)
		}
	})
}
