package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"kdtune/internal/faultinject"
	"kdtune/internal/kdtree"
	"kdtune/internal/render"
	"kdtune/internal/scene"
	"kdtune/internal/vecmath"
)

// testScene builds a deterministic random triangle soup, big enough that
// builds pass through many node probes (so build faults bite) and small
// enough that the suite stays fast.
func testScene(name string, n int) *scene.Scene {
	rng := rand.New(rand.NewSource(7))
	tris := make([]vecmath.Triangle, n)
	for i := range tris {
		c := vecmath.V(rng.Float64()*10, rng.Float64()*10, rng.Float64()*10)
		tris[i] = vecmath.Tri(
			c,
			c.Add(vecmath.V(rng.Float64()*0.4, rng.Float64()*0.4, 0)),
			c.Add(vecmath.V(0, rng.Float64()*0.4, rng.Float64()*0.4)),
		)
	}
	return scene.NewStatic(name, tris,
		scene.View{Eye: vecmath.V(5, 5, 30), LookAt: vecmath.V(5, 5, 5), Up: vecmath.V(0, 1, 0), FOV: 45},
		[]vecmath.Vec3{vecmath.V(20, 30, 25)})
}

// testServer wires a Server over one small scene with generous deadlines.
func testServer(t *testing.T, sc *scene.Scene, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Scenes:          []*scene.Scene{sc},
		DefaultDeadline: 10 * time.Second,
		Slots:           2,
		MaxQueue:        4,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// get issues a request with optional tenant/deadline headers and decodes the
// JSON body into out (which may be nil).
func get(t *testing.T, url, tenant string, deadlineMS int, out any) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	if deadlineMS > 0 {
		req.Header.Set("X-Deadline-Ms", fmt.Sprint(deadlineMS))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil && err != io.EOF {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode
}

// TestStaleGenerationBitwiseIdentical is the central ladder drill: a frame
// served from the stale generation after an aborted rebuild must be
// bitwise-identical to the offline render of the originally built tree —
// the structural guarantee that stale trees are never touched by later
// builds (the cache swaps Builders instead of reusing them).
func TestStaleGenerationBitwiseIdentical(t *testing.T) {
	sc := testScene("stale-test", 4000)
	s, ts := testServer(t, sc, nil)

	renderURL := ts.URL + "/render?scene=stale-test&width=96&height=72"

	// 1. Clean build + render; record the served checksum.
	var first RenderResponse
	if code := get(t, renderURL, "t", 0, &first); code != 200 {
		t.Fatalf("initial render status %d", code)
	}
	if first.Source != "built" || first.Generation != 0 {
		t.Fatalf("initial render source=%s gen=%d", first.Source, first.Generation)
	}

	// 2. Offline reference: BuildGuarded + RenderInto with the server's
	// exact configuration must produce the same checksum.
	cfg := kdtree.BaseConfig(kdtree.AlgoInPlace)
	tree, err := kdtree.NewBuilder().BuildGuarded(sc.Triangles(0), cfg, kdtree.Guard{}) //kdlint:noctx offline reference build is intentionally unguarded; checksum parity is under test
	if err != nil {
		t.Fatalf("offline build: %v", err)
	}
	im := render.NewImage(96, 72)
	render.RenderInto(im, tree, sc.ViewAt(0), sc.Lights, render.Options{Width: 96, Height: 72}) //kdlint:noctx offline reference render in a test binary; nothing to cancel
	offline := fmt.Sprintf("%016x", FrameChecksum(im))
	if first.Checksum != offline {
		t.Fatalf("served frame %s != offline frame %s", first.Checksum, offline)
	}

	// 3. Invalidate, then make every rebuild abort.
	if code := get(t, ts.URL+"/invalidate?scene=stale-test", "t", 0, nil); code != 200 {
		t.Fatal("invalidate failed")
	}
	in := faultinject.Activate(faultinject.Fault{
		Site: faultinject.SiteBuildNode, Index: -1, Kind: faultinject.KindPanic,
	})

	var stale RenderResponse
	code := get(t, renderURL, "t", 0, &stale)
	in.Deactivate()
	if code != 200 {
		t.Fatalf("stale render status %d", code)
	}
	if stale.Source != "stale" || stale.Degraded != "stale" || stale.Generation != 0 {
		t.Fatalf("stale render source=%s degraded=%s gen=%d", stale.Source, stale.Degraded, stale.Generation)
	}
	if stale.Checksum != offline {
		t.Fatalf("stale frame %s != original frame %s — stale generation was not served bitwise-identically", stale.Checksum, offline)
	}
	if s.met.DegradedStale.Load() == 0 || s.met.BuildsAborted.Load() == 0 {
		t.Fatalf("metrics: stale=%d aborted=%d, want both nonzero",
			s.met.DegradedStale.Load(), s.met.BuildsAborted.Load())
	}

	// 4. Faults cleared: the rebuild succeeds at the new generation and the
	// (static) geometry renders to the same frame again.
	var rebuilt RenderResponse
	if code := get(t, renderURL, "t", 0, &rebuilt); code != 200 {
		t.Fatalf("rebuild render status %d", code)
	}
	if rebuilt.Source != "built" || rebuilt.Generation != 1 {
		t.Fatalf("rebuild source=%s gen=%d", rebuilt.Source, rebuilt.Generation)
	}
	if rebuilt.Checksum != offline {
		t.Fatalf("rebuilt frame %s != offline frame %s", rebuilt.Checksum, offline)
	}
}

// TestMedianFallbackRung: with no stale generation to fall back on, an
// aborted build retries with the median algorithm on the same warm Builder
// and serves that, marked degraded.
func TestMedianFallbackRung(t *testing.T) {
	sc := testScene("fallback-test", 4000)
	s, ts := testServer(t, sc, nil)

	// Count=1: the first build-node probe panics (aborting the in-place
	// build), the median retry runs fault-free.
	in := faultinject.Activate(faultinject.Fault{
		Site: faultinject.SiteBuildNode, Index: -1, Kind: faultinject.KindPanic, Count: 1,
	})
	defer in.Deactivate()

	var br BuildResponse
	if code := get(t, ts.URL+"/build?scene=fallback-test", "t", 0, &br); code != 200 {
		t.Fatalf("build status %d", code)
	}
	if br.Source != "fallback" || br.Degraded != "fallback" || br.Algo != "median" {
		t.Fatalf("fallback build source=%s degraded=%s algo=%s", br.Source, br.Degraded, br.Algo)
	}
	if s.met.DegradedFallback.Load() != 1 {
		t.Fatalf("DegradedFallback = %d, want 1", s.met.DegradedFallback.Load())
	}

	// The fallback tree is cached: the next request is a plain hit.
	var hit BuildResponse
	if code := get(t, ts.URL+"/build?scene=fallback-test", "t", 0, &hit); code != 200 {
		t.Fatalf("hit status %d", code)
	}
	if hit.Source != "hit" || hit.Algo != "median" {
		t.Fatalf("post-fallback source=%s algo=%s", hit.Source, hit.Algo)
	}

	// After invalidation (faults exhausted) the full-quality build displaces it.
	get(t, ts.URL+"/invalidate?scene=fallback-test", "t", 0, nil)
	var full BuildResponse
	if code := get(t, ts.URL+"/build?scene=fallback-test", "t", 0, &full); code != 200 {
		t.Fatalf("rebuild status %d", code)
	}
	if full.Source != "built" || full.Algo != "in-place" || full.Generation != 1 {
		t.Fatalf("rebuild source=%s algo=%s gen=%d", full.Source, full.Algo, full.Generation)
	}
}

// TestLowresRung: a seeded cost estimate that cannot fit the deadline makes
// the server shrink the frame instead of starting a render it must abandon.
func TestLowresRung(t *testing.T) {
	sc := testScene("lowres-test", 2000)
	s, ts := testServer(t, sc, func(c *Config) { c.DefaultDeadline = 2 * time.Second })

	// Seed the estimator white-box: 1ms/pixel says a 160×120 frame "costs"
	// 19.2s against a ~1.6s budget; two halvings (40×30 → 1.2s) fit.
	key := GeometryKey(sc.Triangles(0), kdtree.AlgoInPlace)
	s.est.seed(key+"/p1", 1e6)

	var rr RenderResponse
	if code := get(t, ts.URL+"/render?scene=lowres-test&width=160&height=120", "t", 0, &rr); code != 200 {
		t.Fatalf("render status %d", code)
	}
	if !rr.Lowres || rr.Degraded != "lowres" {
		t.Fatalf("lowres=%v degraded=%q, want reduced-resolution degradation", rr.Lowres, rr.Degraded)
	}
	if rr.Width != 40 || rr.Height != 30 {
		t.Fatalf("served %dx%d, want 40x30 after two halvings", rr.Width, rr.Height)
	}
	if s.met.DegradedLowres.Load() != 1 {
		t.Fatalf("DegradedLowres = %d, want 1", s.met.DegradedLowres.Load())
	}
}

// TestTinyDeadlineTypedError: a deadline the build cannot possibly meet must
// produce a prompt typed error (504 deadline or 503 build-aborted), never a
// hang and never a 200.
func TestTinyDeadlineTypedError(t *testing.T) {
	sc := testScene("deadline-test", 20000)
	s, ts := testServer(t, sc, nil)

	start := time.Now()
	var e Error
	code := get(t, ts.URL+"/build?scene=deadline-test", "t", 1, &e)
	elapsed := time.Since(start)
	if code != 504 && code != 503 {
		t.Fatalf("status %d (code %q), want 504 or 503", code, e.Code)
	}
	if e.Code != "deadline" && e.Code != "build-aborted" {
		t.Fatalf("error code %q", e.Code)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("typed error took %v — deadline did not propagate", elapsed)
	}
	if s.met.Timeouts.Load()+s.met.Errors.Load() == 0 {
		t.Fatal("no timeout/error counted")
	}

	// The same scene with a sane deadline still works: the aborted build
	// left the Builder and cache reusable.
	var br BuildResponse
	if code := get(t, ts.URL+"/build?scene=deadline-test", "t", 0, &br); code != 200 {
		t.Fatalf("follow-up build status %d", code)
	}
	if br.Source != "built" && br.Source != "fallback" {
		t.Fatalf("follow-up source %s", br.Source)
	}
}

// TestQueueShed429: when a tenant's pending count exceeds the bound, the
// server sheds with 429 and a Retry-After hint instead of queueing without
// limit.
func TestQueueShed429(t *testing.T) {
	sc := testScene("shed-test", 2000)
	s, ts := testServer(t, sc, func(c *Config) { c.Slots = 1; c.MaxQueue = 1 })

	// Warm the cache so the slow request below is render-bound.
	if code := get(t, ts.URL+"/build?scene=shed-test", "t", 0, nil); code != 200 {
		t.Fatal("warm build failed")
	}

	// A render stalled by per-row delays occupies the single slot.
	in := faultinject.Activate(faultinject.Fault{
		Site: faultinject.SiteRenderTile, Index: -1, Kind: faultinject.KindDelay, Delay: 20 * time.Millisecond,
	})
	defer in.Deactivate()
	done := make(chan int)
	go func() {
		done <- get(t, ts.URL+"/render?scene=shed-test&width=64&height=48", "t", 0, nil) //kdlint:noctx test goroutine hands its status to the receive at the end of the test
	}()
	// Wait until the slow request is admitted (pending=1).
	deadline := time.Now().Add(5 * time.Second)
	for s.adm.tenant("t").pending.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow request never became pending")
		}
		time.Sleep(time.Millisecond) //kdlint:noctx bounded poll: the deadline check above fails the test after 5s
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/render?scene=shed-test", nil)
	req.Header.Set("X-Tenant", "t")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 429 {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" || resp.Header.Get("Retry-After-Ms") == "" {
		t.Fatal("429 missing Retry-After headers")
	}
	io.Copy(io.Discard, resp.Body)
	if s.met.Shed429.Load() != 1 {
		t.Fatalf("Shed429 = %d, want 1", s.met.Shed429.Load())
	}
	if code := <-done; code != 200 { //kdlint:noctx joins the slow-request goroutine launched above
		t.Fatalf("slow request finished with %d", code)
	}
}

// TestBreakerTripsAndRecoversE2E drives the per-tenant breaker through its
// full cycle with a fixed fault plan and sequential requests — the
// deterministic trip/half-open/close drill.
func TestBreakerTripsAndRecoversE2E(t *testing.T) {
	sc := testScene("breaker-test", 2000)
	s, ts := testServer(t, sc, func(c *Config) { c.BreakerTrip = 2; c.BreakerCooldown = 2 })

	// Warm the tree so renders are the only faulted work.
	if code := get(t, ts.URL+"/build?scene=breaker-test", "b", 0, nil); code != 200 {
		t.Fatal("warm build failed")
	}
	url := ts.URL + "/render?scene=breaker-test&width=64&height=48"

	// Every render panics while the plan is active.
	in := faultinject.Activate(faultinject.Fault{
		Site: faultinject.SiteRenderTile, Index: -1, Kind: faultinject.KindPanic,
	})
	want := func(step string, wantCode int, state BreakerState) {
		t.Helper()
		var e Error
		code := get(t, url, "b", 0, &e)
		if code != wantCode {
			t.Fatalf("%s: status %d (code %q), want %d", step, code, e.Code, wantCode)
		}
		if got := s.adm.tenant("b").breaker.State(); got != state {
			t.Fatalf("%s: breaker %v, want %v", step, got, state)
		}
	}

	want("failure 1", 500, BreakerClosed)
	want("failure 2 (trips)", 500, BreakerOpen)
	want("shed 1", 503, BreakerOpen)
	want("probe (fails)", 500, BreakerOpen) // cooldown reached → probe admitted, panics, re-opens
	in.Deactivate()
	want("shed 2", 503, BreakerOpen)
	want("probe (succeeds)", 200, BreakerClosed)
	want("healthy again", 200, BreakerClosed)

	if s.met.ShedBreaker.Load() != 2 {
		t.Fatalf("ShedBreaker = %d, want 2", s.met.ShedBreaker.Load())
	}
	if s.met.Panics.Load() != 3 {
		t.Fatalf("Panics = %d, want 3", s.met.Panics.Load())
	}
}

// TestClientErrorsDoNotTripBreaker pins the breaker's failure definition:
// 4xx responses are the requester's fault, not a service failure, so a burst
// of malformed requests far past the trip threshold must leave the breaker
// closed and valid requests unharmed.
func TestClientErrorsDoNotTripBreaker(t *testing.T) {
	sc := testScene("fourxx-test", 1500)
	s, ts := testServer(t, sc, func(c *Config) { c.BreakerTrip = 2; c.BreakerCooldown = 2 })

	if code := get(t, ts.URL+"/build?scene=fourxx-test", "c", 0, nil); code != 200 {
		t.Fatalf("warm build status %d", code)
	}
	for i := 0; i < 6; i++ {
		if code := get(t, ts.URL+"/build?scene=no-such-scene", "c", 0, nil); code != 404 {
			t.Fatalf("bad request #%d status %d, want 404", i, code)
		}
	}
	if st := s.adm.tenant("c").breaker.State(); st != BreakerClosed {
		t.Fatalf("breaker %v after client-error burst, want closed", st)
	}
	if code := get(t, ts.URL+"/build?scene=fourxx-test", "c", 0, nil); code != 200 {
		t.Fatalf("valid request after 4xx burst: status %d, want 200", code)
	}
	if got := s.met.ShedBreaker.Load(); got != 0 {
		t.Fatalf("ShedBreaker = %d, want 0", got)
	}
}

// TestAlgorithmNames: every builder name the figures use is served, and any
// other name, "sort-once" included (a sweep engine, not a builder), is a
// typed 400.
func TestAlgorithmNames(t *testing.T) {
	sc := testScene("algo-test", 600)
	_, ts := testServer(t, sc, nil)
	for _, a := range append(append([]kdtree.Algorithm{}, kdtree.Algorithms...), kdtree.AlgoMedian) {
		if code := get(t, ts.URL+"/build?scene=algo-test&algo="+a.String(), "a", 0, nil); code != 200 {
			t.Fatalf("algo=%v: status %d, want 200", a, code)
		}
	}
	for _, name := range []string{"sort-once", "bogus"} {
		var body struct {
			Code string `json:"code"`
		}
		if code := get(t, ts.URL+"/build?scene=algo-test&algo="+name, "a", 0, &body); code != 400 || body.Code != "bad-algo" {
			t.Fatalf("algo=%s: status %d code %q, want 400 bad-algo", name, code, body.Code)
		}
	}
}

// TestQueryEndpoints smoke-tests /range and /nn through the cache, plus the
// /metrics and /log observability surfaces.
func TestQueryEndpoints(t *testing.T) {
	sc := testScene("query-test", 2000)
	s, ts := testServer(t, sc, nil)

	var rr RangeResponse
	if code := get(t, ts.URL+"/range?scene=query-test&minx=2&miny=2&minz=2&maxx=8&maxy=8&maxz=8&limit=10", "t", 0, &rr); code != 200 {
		t.Fatalf("range status %d", code)
	}
	if rr.Count == 0 || len(rr.Indices) > 10 {
		t.Fatalf("range count=%d len=%d", rr.Count, len(rr.Indices))
	}

	var nn NNResponse
	if code := get(t, ts.URL+"/nn?scene=query-test&x=5&y=5&z=5", "t", 0, &nn); code != 200 {
		t.Fatalf("nn status %d", code)
	}
	if !nn.Found || nn.Distance < 0 {
		t.Fatalf("nn found=%v dist=%g", nn.Found, nn.Distance)
	}

	var snap Snapshot
	if code := get(t, ts.URL+"/metrics", "", 0, &snap); code != 200 {
		t.Fatal("metrics failed")
	}
	if snap.Requests < 2 || snap.CacheHits+snap.CacheMisses == 0 {
		t.Fatalf("snapshot requests=%d cache=%d/%d", snap.Requests, snap.CacheHits, snap.CacheMisses)
	}
	if snap.Tenants["t"].N == 0 {
		t.Fatal("tenant latency window empty")
	}

	var logs []LogRecord
	if code := get(t, ts.URL+"/log?n=10", "", 0, &logs); code != 200 {
		t.Fatal("log failed")
	}
	if len(logs) == 0 {
		t.Fatal("ring log empty after requests")
	}
	_ = s
}
