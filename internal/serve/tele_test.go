package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// nopWriter is a ResponseWriter that allocates nothing.
type nopWriter struct{ h http.Header }

func (w *nopWriter) Header() http.Header         { return w.h }
func (w *nopWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nopWriter) WriteHeader(int)             {}

// TestHandleCountsSuccessWithoutLookup pins that a route registered through
// handle counts a response with its success code through the handle it
// resolved at registration: the wrapper adds one allocation, its status
// writer, to the bare route's, and no registry lookup.
func TestHandleCountsSuccessWithoutLookup(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	noop := func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusOK) }
	s.handle("GET /probe", "probe", http.StatusOK, noop)
	s.mux.HandleFunc("GET /bare", noop)

	w := &nopWriter{h: http.Header{}}
	allocs := func(path string) float64 {
		req := httptest.NewRequest("GET", path, nil)
		return testing.AllocsPerRun(200, func() { s.ServeHTTP(w, req) })
	}
	bare, wrapped := allocs("/bare"), allocs("/probe")
	if wrapped > bare+1 {
		t.Errorf("a 200 through handle allocates %.0f times, the bare route %.0f; want at most one more", wrapped, bare)
	}
	if got := s.ops.Counter("meecc_http_requests_total", "", "handler", "probe", "code", "200").Value(); got < 200 {
		t.Errorf("probe route counted %d requests, want at least 200", got)
	}
}
