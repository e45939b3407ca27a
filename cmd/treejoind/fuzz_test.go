package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"treejoin"
	"treejoin/internal/synth"
)

// extremeTaus are thresholds far past any distance; 2τ+1 and the search
// windows overflow int (or int32) at the larger ones unless τ is clamped.
var extremeTaus = []string{"1099511627776", "2147483648", "9223372036854775807"}

// TestServeExtremeTau: the threshold endpoints answer 200 at extreme τ
// within the request deadline, report every pair (every tree), and leave the
// server healthy.
func TestServeExtremeTau(t *testing.T) {
	const deadline = 5 * time.Second
	_, hs := testServer(t, 8, deadline)
	const n = 30
	for _, tau := range extremeTaus {
		start := time.Now()
		resp, err := http.Get(hs.URL + "/selfjoin?tau=" + tau)
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		resp.Body.Close()
		if resp.StatusCode != 200 || strings.Contains(body, `"error"`) {
			t.Fatalf("selfjoin tau=%s: status %d: %s", tau, resp.StatusCode, tail(body))
		}
		if got, want := strings.Count(body, "\n")-1, n*(n-1)/2; got != want {
			t.Fatalf("selfjoin tau=%s: %d pairs, want %d", tau, got, want)
		}
		resp, body = post(t, hs, "/join", fmt.Sprintf(`{"trees":["{a{b}}","{c}"],"tau":%s}`, tau))
		if resp.StatusCode != 200 {
			t.Fatalf("join tau=%s: status %d: %s", tau, resp.StatusCode, tail(body))
		}
		if got, want := strings.Count(body, "\n")-1, 2*n; got != want {
			t.Fatalf("join tau=%s: %d pairs, want %d", tau, got, want)
		}
		resp, body = post(t, hs, "/search", fmt.Sprintf(`{"query":"{a{b}}","tau":%s}`, tau))
		if resp.StatusCode != 200 {
			t.Fatalf("search tau=%s: status %d: %s", tau, resp.StatusCode, tail(body))
		}
		if got := strings.Count(body, `"id"`); got != n {
			t.Fatalf("search tau=%s: %d matches, want %d", tau, got, n)
		}
		if d := time.Since(start); d > deadline {
			t.Fatalf("tau=%s: the three requests took %v, past the %v deadline", tau, d, deadline)
		}
	}
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz after extreme thresholds: %v %v", resp, err)
	}
	resp.Body.Close()
}

func tail(s string) string {
	if len(s) > 200 {
		return "…" + s[len(s)-200:]
	}
	return s
}

// fuzzRoutes are the endpoints FuzzHandlers picks from.
var fuzzRoutes = []struct{ method, path string }{
	{"GET", "/healthz"},
	{"GET", "/stats"},
	{"GET", "/selfjoin"},
	{"POST", "/join"},
	{"POST", "/search"},
	{"POST", "/topk"},
	{"POST", "/knn"},
	{"POST", "/add"},
	{"POST", "/remove"},
}

// FuzzHandlers drives one request per input — (endpoint, query string,
// body) — against a fresh server over a small corpus, calling the handler
// directly so a panic fails the input instead of being recovered by
// net/http. Property: the status is below 500, and /healthz answers 200
// afterwards. The server deadline is short, so a request whose work is not
// bounded shows up as a 504; a 504 is accepted only when the input set its
// own deadline_ms.
func FuzzHandlers(f *testing.F) {
	for _, tau := range extremeTaus {
		f.Add(uint8(2), "tau="+tau, "")
		f.Add(uint8(3), "", `{"trees":["{a{b}}","{c}"],"tau":`+tau+`}`)
		f.Add(uint8(4), "", `{"query":"{a{b}}","tau":`+tau+`}`)
	}
	for _, k := range []string{"-1", "0", "4611686018427387904", "9223372036854775807"} {
		f.Add(uint8(5), "", `{"k":`+k+`}`)
		f.Add(uint8(6), "", `{"query":"{l0{l1}}","k":`+k+`}`)
	}
	f.Add(uint8(0), "", "")
	f.Add(uint8(1), "", "")
	f.Add(uint8(2), "tau=-3", "")
	f.Add(uint8(2), "tau=2&deadline_ms=0", "")
	f.Add(uint8(4), "", `{"query":"{a","tau":1}`)
	f.Add(uint8(7), "", `{"trees":["{a{b}{c}}","}{"]}`)
	f.Add(uint8(8), "", `{"ids":[-1,0,9223372036854775807]}`)

	ts := synth.Synthetic(12, 17)
	f.Fuzz(func(t *testing.T, route uint8, query, body string) {
		cp, err := treejoin.NewCorpus(ts)
		if err != nil {
			t.Fatal(err)
		}
		h := newServer(cp, cp.Labels(), 1, 4, 2*time.Second).routes()
		r := fuzzRoutes[int(route)%len(fuzzRoutes)]
		req := httptest.NewRequest(r.method, "/", strings.NewReader(body))
		req.URL.Path = r.path
		req.URL.RawQuery = query
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		status := rec.Code
		if status == http.StatusGatewayTimeout && req.URL.Query().Has("deadline_ms") {
			status = 0
		}
		if status >= 500 {
			t.Fatalf("%s %s?%s %q: status %d: %s", r.method, r.path, query, body, rec.Code, tail(rec.Body.String()))
		}
		// A streamed join reports a mid-stream failure in its last line.
		lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
		if last := lines[len(lines)-1]; rec.Code == 200 && strings.HasPrefix(last, `{"error"`) && !req.URL.Query().Has("deadline_ms") {
			t.Fatalf("%s %s?%s %q: stream failed: %s", r.method, r.path, query, body, last)
		}
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
		if rec.Code != 200 {
			t.Fatalf("healthz after %s %s: status %d", r.method, r.path, rec.Code)
		}
	})
}
