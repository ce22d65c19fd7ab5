package server

import (
	"bytes"
	"net/http"
	"testing"
)

// nullWriter mirrors benchjson's reusable no-op ResponseWriter.
type nullWriter struct {
	h      http.Header
	status int
}

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) WriteHeader(c int)           { w.status = c }
func (w *nullWriter) Write(p []byte) (int, error) { return len(p), nil }

type rb struct{ *bytes.Reader }

func (rb) Close() error { return nil }

func BenchmarkQueryCheckHit(b *testing.B) {
	s, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	seedStream(b, h, "q")
	body := []byte(`{"freq_hz":100000000,"latency_ns":10,"buffer":2}`)
	br := bytes.NewReader(nil)
	req, _ := http.NewRequest("POST", "/v1/streams/q/check", rb{br})
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", "bench")
	rw := &nullWriter{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.Reset(body)
		req.ContentLength = int64(len(body))
		rw.status = 0
		h.ServeHTTP(rw, req)
		if rw.status != 200 {
			b.Fatalf("status %d", rw.status)
		}
	}
}

func seedStream(tb testing.TB, h http.Handler, id string) {
	tb.Helper()
	body := []byte(`{"t":[1,2,3,4,5,6,7,8],"demand":[10,20,30,40,50,60,70,80]}`)
	req, _ := http.NewRequest("POST", "/v1/streams/"+id+"/ingest", rb{bytes.NewReader(body)})
	req.Header.Set("Content-Type", "application/json")
	req.ContentLength = int64(len(body))
	rw := &nullWriter{h: make(http.Header)}
	h.ServeHTTP(rw, req)
	if rw.status != 200 {
		tb.Fatalf("seed status %d", rw.status)
	}
}
