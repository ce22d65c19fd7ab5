package server

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestPprofGating: the profiling endpoints exist only when explicitly
// enabled — the default mux must not expose them.
func TestPprofGating(t *testing.T) {
	for _, tc := range []struct {
		enable bool
		want   int
	}{
		{enable: false, want: http.StatusNotFound},
		{enable: true, want: http.StatusOK},
	} {
		s, err := New(Config{EnablePprof: tc.enable})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		req := httptest.NewRequest("GET", "/debug/pprof/", nil)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != tc.want {
			t.Fatalf("EnablePprof=%v: GET /debug/pprof/ = %d, want %d", tc.enable, rec.Code, tc.want)
		}
		// The service endpoints are untouched either way.
		req = httptest.NewRequest("GET", "/healthz", nil)
		rec = httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("EnablePprof=%v: /healthz = %d", tc.enable, rec.Code)
		}
	}
}
