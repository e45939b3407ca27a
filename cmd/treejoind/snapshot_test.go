package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestServeSnapshotPinning races /add and /remove against /search, /knn,
// /selfjoin and /topk (run it under -race) and checks the server's
// isolation contract:
//   - every id a read returns names a tree that was live at some moment
//     during that read: added before the read's reply, and not removed
//     before the read was sent;
//   - a write is visible to the next request: once /add replies, a /search
//     for the added tree finds its id, and once /remove replies, it does not.
func TestServeSnapshotPinning(t *testing.T) {
	_, hs := testServer(t, 64, 10*time.Second)
	const initial = 30

	// life records, per id a writer was given, when its add was sent and
	// when its remove reply arrived (zero: never removed).
	type life struct{ added, removed time.Time }
	var mu sync.Mutex
	lives := map[int]*life{}

	// A read's ids and the interval it ran in, checked after the race.
	type read struct {
		what       string
		ids        []int
		start, end time.Time
	}
	var reads []read
	record := func(r read) {
		mu.Lock()
		reads = append(reads, r)
		mu.Unlock()
	}

	var writersWG, wg sync.WaitGroup
	// Each goroutine sends at most one error and returns, so the buffer
	// never fills.
	errs := make(chan error, 64)
	fail := func(format string, args ...any) { errs <- fmt.Errorf(format, args...) }
	stop := make(chan struct{})

	const writers, rounds = 2, 12
	for w := range writers {
		writersWG.Add(1)
		go func() {
			defer writersWG.Done()
			for k := range rounds {
				tr := fmt.Sprintf("{a{b}{w%dr%d}}", w, k)
				sent := time.Now()
				var added struct {
					IDs []int `json:"ids"`
				}
				if err := call(hs, "/add", fmt.Sprintf(`{"trees":[%q]}`, tr), &added); err != nil || len(added.IDs) != 1 {
					fail("add %s: %v %v", tr, added.IDs, err)
					return
				}
				id := added.IDs[0]
				mu.Lock()
				lives[id] = &life{added: sent}
				mu.Unlock()
				if found, err := searchFinds(hs, tr, id); err != nil || !found {
					fail("search after the add of %s (id %d) replied: found=%v err=%v", tr, id, found, err)
					return
				}
				var removed struct {
					Removed int `json:"removed"`
				}
				if err := call(hs, "/remove", fmt.Sprintf(`{"ids":[%d]}`, id), &removed); err != nil || removed.Removed != 1 {
					fail("remove %d: %+v %v", id, removed, err)
					return
				}
				mu.Lock()
				lives[id].removed = time.Now()
				mu.Unlock()
				if found, err := searchFinds(hs, tr, id); err != nil || found {
					fail("search after the remove of id %d replied: found=%v err=%v", id, found, err)
					return
				}
			}
		}()
	}

	readers := []struct {
		what string
		run  func() ([]int, error)
	}{
		{"search", func() ([]int, error) {
			var out struct{ Matches []wireMatch }
			err := call(hs, "/search", `{"query":"{a{b}{c}}","tau":2}`, &out)
			return matchIDs(out.Matches), err
		}},
		{"knn", func() ([]int, error) {
			var out struct{ Matches []wireMatch }
			err := call(hs, "/knn", `{"query":"{a{b}{c}}","k":6}`, &out)
			return matchIDs(out.Matches), err
		}},
		{"topk", func() ([]int, error) {
			var out struct{ Pairs []wirePair }
			err := call(hs, "/topk", `{"k":6}`, &out)
			return pairIDs(out.Pairs), err
		}},
		{"selfjoin", func() ([]int, error) {
			resp, err := http.Get(hs.URL + "/selfjoin?tau=2")
			if err != nil {
				return nil, err
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			body := string(raw)
			if err != nil || resp.StatusCode != 200 {
				return nil, fmt.Errorf("status %d: %v: %s", resp.StatusCode, err, body)
			}
			var ps []wirePair
			lines := strings.Split(strings.TrimSpace(body), "\n")
			for _, line := range lines[:len(lines)-1] {
				var p wirePair
				if err := json.Unmarshal([]byte(line), &p); err != nil {
					return nil, fmt.Errorf("pair line %q: %v", line, err)
				}
				ps = append(ps, p)
			}
			if !strings.HasPrefix(lines[len(lines)-1], `{"summary"`) {
				return nil, fmt.Errorf("stream ended with %q", lines[len(lines)-1])
			}
			return pairIDs(ps), nil
		}},
	}
	for _, rd := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				start := time.Now()
				ids, err := rd.run()
				if err != nil {
					fail("%s: %v", rd.what, err)
					return
				}
				record(read{what: rd.what, ids: ids, start: start, end: time.Now()})
			}
		}()
	}

	// Readers run until the writers finish.
	writersWG.Wait()
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	sawAdded := 0
	for _, r := range reads {
		for _, id := range r.ids {
			if id < initial {
				continue
			}
			sawAdded++
			l := lives[id]
			switch {
			case l == nil:
				t.Fatalf("%s returned id %d, which no add was given", r.what, id)
			case l.added.After(r.end):
				t.Fatalf("%s returned id %d before its add was sent", r.what, id)
			case !l.removed.IsZero() && l.removed.Before(r.start):
				t.Fatalf("%s returned id %d after its remove had replied", r.what, id)
			}
		}
	}
	t.Logf("%d reads, %d ids of added trees among their results", len(reads), sawAdded)
	if len(reads) == 0 {
		t.Fatal("no read completed")
	}
}

// call POSTs body to path and decodes a 200 reply into out.
func call(hs *httptest.Server, path, body string, out any) error {
	resp, err := http.Post(hs.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		return err
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 {
		return fmt.Errorf("%s: status %d: %v: %s", path, resp.StatusCode, err, text)
	}
	return json.Unmarshal(text, out)
}

// searchFinds reports whether a τ=0 /search for tree finds id.
func searchFinds(hs *httptest.Server, tree string, id int) (bool, error) {
	var out struct{ Matches []wireMatch }
	if err := call(hs, "/search", fmt.Sprintf(`{"query":%q,"tau":0}`, tree), &out); err != nil {
		return false, err
	}
	for _, m := range out.Matches {
		if m.ID == id {
			return true, nil
		}
	}
	return false, nil
}

func matchIDs(ms []wireMatch) []int {
	ids := make([]int, len(ms))
	for i, m := range ms {
		ids[i] = m.ID
	}
	return ids
}

func pairIDs(ps []wirePair) []int {
	ids := make([]int, 0, 2*len(ps))
	for _, p := range ps {
		ids = append(ids, p.I, p.J)
	}
	return ids
}
