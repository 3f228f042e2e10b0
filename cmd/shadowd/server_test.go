package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// testServer spins up a small shadowd instance behind httptest.
func testServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	srv, err := newServer(serverConfig{L: 6, Cores: 4, Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return srv, hs
}

func doReq(t *testing.T, client *http.Client, method, url string, body []byte) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func TestServerBasicOps(t *testing.T) {
	_, hs := testServer(t)
	c := hs.Client()

	// Missing key: 404, and the miss costs no ORAM access.
	if code, _ := doReq(t, c, http.MethodGet, hs.URL+"/kv/nope", nil); code != http.StatusNotFound {
		t.Fatalf("GET absent key: status %d, want 404", code)
	}

	// Values with trailing NULs must round-trip bit-exact (the framing fix).
	want := []byte("payload\x00\x00")
	if code, _ := doReq(t, c, http.MethodPut, hs.URL+"/kv/a", want); code != http.StatusNoContent {
		t.Fatalf("PUT: status %d, want 204", code)
	}
	code, got := doReq(t, c, http.MethodGet, hs.URL+"/kv/a", nil)
	if code != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("GET after PUT: status %d body %q, want 200 %q", code, got, want)
	}

	// Overwrite wins.
	want2 := []byte("second")
	doReq(t, c, http.MethodPut, hs.URL+"/kv/a", want2)
	if _, got := doReq(t, c, http.MethodGet, hs.URL+"/kv/a", nil); !bytes.Equal(got, want2) {
		t.Fatalf("GET after overwrite: %q, want %q", got, want2)
	}

	// DELETE then GET: gone.
	if code, _ := doReq(t, c, http.MethodDelete, hs.URL+"/kv/a", nil); code != http.StatusNoContent {
		t.Fatalf("DELETE: status %d, want 204", code)
	}
	if code, _ := doReq(t, c, http.MethodGet, hs.URL+"/kv/a", nil); code != http.StatusNotFound {
		t.Fatalf("GET after DELETE: status %d, want 404", code)
	}
	if code, _ := doReq(t, c, http.MethodDelete, hs.URL+"/kv/a", nil); code != http.StatusNotFound {
		t.Fatalf("double DELETE: status %d, want 404", code)
	}

	// Oversized value: rejected up front, never truncated.
	big := bytes.Repeat([]byte("x"), 1<<12)
	if code, _ := doReq(t, c, http.MethodPut, hs.URL+"/kv/big", big); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized PUT: status %d, want 413", code)
	}
	if code, _ := doReq(t, c, http.MethodGet, hs.URL+"/kv/big", nil); code != http.StatusNotFound {
		t.Fatalf("oversized PUT must not create the key: status %d, want 404", code)
	}

	// Malformed keys and methods.
	if code, _ := doReq(t, c, http.MethodGet, hs.URL+"/kv/", nil); code != http.StatusBadRequest {
		t.Fatalf("empty key: status %d, want 400", code)
	}
	if code, _ := doReq(t, c, http.MethodGet, hs.URL+"/kv/a/b", nil); code != http.StatusBadRequest {
		t.Fatalf("nested key: status %d, want 400", code)
	}
	if code, _ := doReq(t, c, http.MethodPatch, hs.URL+"/kv/a", []byte("x")); code != http.StatusMethodNotAllowed {
		t.Fatalf("PATCH: status %d, want 405", code)
	}

	// Stats endpoint serves JSON with the counters we just generated.
	code, body := doReq(t, c, http.MethodGet, hs.URL+"/statsz", nil)
	if code != http.StatusOK || !strings.Contains(string(body), "\"reads\"") {
		t.Fatalf("/statsz: status %d body %q", code, body)
	}
}

// TestConcurrentReadYourWrites hammers the server from many goroutines with
// overlapping key sets under -race. Each worker owns one private key whose
// value it alone writes — every GET of it must return the worker's latest
// write (read-your-writes through the batch pipeline). All workers also
// fight over one shared key; any value read from it must be a complete
// write from some worker, never a torn or stale-truncated block.
func TestConcurrentReadYourWrites(t *testing.T) {
	_, hs := testServer(t)
	const workers, rounds = 8, 30
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := hs.Client()
			private := fmt.Sprintf("private-%d", w)
			for i := 0; i < rounds; i++ {
				mine := []byte(fmt.Sprintf("w%d-round%d\x00", w, i))
				if code, _ := doReq(t, c, http.MethodPut, hs.URL+"/kv/"+private, mine); code != http.StatusNoContent {
					errs <- fmt.Errorf("worker %d PUT %s: status %d", w, private, code)
					return
				}
				code, got := doReq(t, c, http.MethodGet, hs.URL+"/kv/"+private, nil)
				if code != http.StatusOK || !bytes.Equal(got, mine) {
					errs <- fmt.Errorf("worker %d round %d: read-your-writes violated: status %d got %q want %q",
						w, i, code, got, mine)
					return
				}

				shared := []byte(fmt.Sprintf("shared-by-w%d-i%d", w, i))
				doReq(t, c, http.MethodPut, hs.URL+"/kv/shared", shared)
				if code, got := doReq(t, c, http.MethodGet, hs.URL+"/kv/shared", nil); code == http.StatusOK {
					if !bytes.HasPrefix(got, []byte("shared-by-w")) {
						errs <- fmt.Errorf("worker %d: torn shared value %q", w, got)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestDeterministicArbitration replays the same request sequence against
// two fresh servers and demands identical simulated timelines: the queue's
// (cycle, core) arbitration and the batch clock must not depend on
// anything but the presented sequence.
func TestDeterministicArbitration(t *testing.T) {
	run := func() statsSnapshot {
		srv, err := newServer(serverConfig{L: 6, Cores: 4, Batch: 8})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		for i := 0; i < 120; i++ {
			key := fmt.Sprintf("key-%d", i%17)
			switch i % 5 {
			case 0, 1:
				r := request{op: opPut, key: key, value: []byte(fmt.Sprintf("v%d", i))}
				if resp := srv.submit(&r); resp.err != nil {
					t.Fatalf("op %d PUT: %v", i, resp.err)
				}
			case 4:
				r := request{op: opDelete, key: key}
				if resp := srv.submit(&r); resp.err != nil {
					t.Fatalf("op %d DELETE: %v", i, resp.err)
				}
			default:
				r := request{op: opGet, key: key}
				if resp := srv.submit(&r); resp.err != nil {
					t.Fatalf("op %d GET: %v", i, resp.err)
				}
			}
		}
		return srv.stats()
	}

	a, b := run(), run()
	if a.SimCycles != b.SimCycles {
		t.Fatalf("simulated clocks diverged on identical input: %d vs %d cycles", a.SimCycles, b.SimCycles)
	}
	if a.Queue != b.Queue {
		t.Fatalf("queue stats diverged on identical input:\n%+v\n%+v", a.Queue, b.Queue)
	}
	if a.Reads != b.Reads || a.Writes != b.Writes || a.Deletes != b.Deletes || a.Misses != b.Misses {
		t.Fatalf("op counters diverged: %+v vs %+v", a, b)
	}
	if a.SimForward != b.SimForward || a.SimComplete != b.SimComplete {
		t.Fatalf("simulated latency digests diverged")
	}
}

// TestBatchedSubmitsStaySequential fills a whole batch while the serving
// loop is busy and checks the responses still match a sequential model.
func TestBatchedSubmitsStaySequential(t *testing.T) {
	srv, err := newServer(serverConfig{L: 6, Cores: 2, Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", i)
			put := request{op: opPut, key: key, value: []byte(key)}
			if resp := srv.submit(&put); resp.err != nil {
				t.Errorf("PUT %s: %v", key, resp.err)
				return
			}
			get := request{op: opGet, key: key}
			resp := srv.submit(&get)
			if resp.err != nil || !resp.found || !bytes.Equal(resp.value, []byte(key)) {
				t.Errorf("GET %s: err=%v found=%v value=%q", key, resp.err, resp.found, resp.value)
			}
		}(i)
	}
	wg.Wait()

	snap := srv.stats()
	if snap.Keys != n {
		t.Fatalf("directory has %d keys, want %d", snap.Keys, n)
	}
	if snap.Errors != 0 {
		t.Fatalf("%d server-side errors", snap.Errors)
	}
}

// TestShadowCreationReachesCollector pins that the duplication policy
// reports into the server's collector: shadows the policy creates must
// show up as rd_shadows/hd_shadows on /debug/shadow and /debug/kv, not
// only as the controller's forwards.
func TestShadowCreationReachesCollector(t *testing.T) {
	srv, err := newServer(serverConfig{L: 6, Cores: 4, Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("k%d", i%64)
		put := request{op: opPut, key: key, value: []byte(key)}
		if resp := srv.submit(&put); resp.err != nil {
			t.Fatalf("PUT %s: %v", key, resp.err)
		}
		get := request{op: opGet, key: key}
		if resp := srv.submit(&get); resp.err != nil {
			t.Fatalf("GET %s: %v", key, resp.err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if n := srv.mc.Counter("rd_shadows") + srv.mc.Counter("hd_shadows"); n == 0 {
		t.Fatalf("no shadow creation counted (forwards=%d)", srv.q.Controller().Stats().ShadowForwards)
	}
}
