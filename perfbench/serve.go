package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"kdtune/internal/kdtree"
	"kdtune/internal/render"
	"kdtune/internal/scene"
	"kdtune/internal/serve"
	"kdtune/internal/vecmath"
)

// The serve workload: an in-process serve.Server on a loopback listener,
// serving only the scenes it uses, driven by one closed loop in which two
// tenants take turns, each on its own connection replaying its own seeded
// read/write mix. One request is in flight at a time, so an op's latency is
// its own work, never its overlap with another tenant's.
const (
	serveTenants  = 2
	serveWorkers  = 1 // server build/render parallelism per request
	serveWidth    = 64
	serveHeight   = serveWidth * 3 / 4
	servePacket   = 4
	serveDeadline = 60 * time.Second // far above any op: a shed or timeout is a failure
	serveLogSize  = 1 << 15          // holds every request of a window
	rangeLimit    = 64               // the /range default index cap
)

// Read keys: frame 0 of each read scene, built during set-up. Write keys:
// one WoodDoll frame per tenant that no read touches, so every write builds
// exactly once and has no joiners.
var (
	serveReadScenes  = []string{"WoodDoll", "Toasters"}
	serveWriteScene  = "WoodDoll"
	serveWriteFrames = [serveTenants]int{9, 19}
)

// Indices into serveReadScenes.
const (
	sceneWoodDoll = 0
	sceneToasters = 1
)

type opKind uint8

const (
	kindRender opKind = iota
	kindRange
	kindNN
	kindWrite
)

func (k opKind) String() string {
	return [...]string{"render", "range", "nn", "write"}[k]
}

// opSpec is one op of a tenant's seeded stream.
type opSpec struct {
	kind  opKind
	scene int // index into serveReadScenes (reads)
	box   vecmath.AABB
	point vecmath.Vec3
}

// reqRecord is one HTTP exchange of an op.
type reqRecord struct {
	body     []byte
	clientNS int64 // send to body read
}

// opRecord is one completed op as the client saw it.
type opRecord struct {
	spec    opSpec
	latency time.Duration
	reqs    []reqRecord
	traced  bool
	err     error
}

// serveState is one set-up: fresh scenes, a fresh Server on its own
// listener, and its caches filled.
type serveState struct {
	scenes map[string]*scene.Scene
	srv    *serve.Server
	hs     *http.Server
	base   string
	served chan struct{} // closed when hs.Serve returns
	client *http.Client  // the set-up and admin client
	genDur time.Duration
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}
}

func setupServe() (*serveState, error) {
	t0 := time.Now()
	st := &serveState{scenes: map[string]*scene.Scene{}, served: make(chan struct{}), client: newClient()}
	var list []*scene.Scene
	for _, name := range serveReadScenes {
		sc, err := scene.ByName(name)
		if err != nil {
			return nil, err
		}
		st.scenes[name] = sc
		list = append(list, sc)
	}
	st.genDur = time.Since(t0)
	st.srv = serve.New(serve.Config{
		Scenes:    list,
		Algorithm: kdtree.AlgoInPlace,
		Workers:   serveWorkers,
		// Defaults for Slots (4) and MaxQueue (8) never shed one
		// request in flight.
		DefaultDeadline: serveDeadline,
		MaxDeadline:     serveDeadline,
		LogSize:         serveLogSize,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.base = "http://" + ln.Addr().String()
	st.hs = &http.Server{Handler: st.srv.Handler(), ReadHeaderTimeout: serveDeadline}
	go func() {
		defer close(st.served)
		_ = st.hs.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	type key struct {
		scene string
		frame int
	}
	var keys []key
	for _, name := range serveReadScenes {
		keys = append(keys, key{name, 0})
	}
	for _, f := range serveWriteFrames {
		keys = append(keys, key{serveWriteScene, f})
	}
	for _, k := range keys {
		body, status, err := get(st.client, fmt.Sprintf("%s/build?scene=%s&frame=%d", st.base, k.scene, k.frame), "setup")
		if err != nil || status != http.StatusOK {
			st.close()
			return nil, fmt.Errorf("fill %s frame %d: status %d: %v %s", k.scene, k.frame, status, err, body)
		}
	}
	return st, nil
}

// close shuts the server down and waits for its Serve loop to return.
func (st *serveState) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = st.hs.Shutdown(ctx) // a timeout leaves only idle loopback conns
	<-st.served
	st.client.CloseIdleConnections()
}

// get issues one GET as tenant and returns the whole body.
func get(c *http.Client, u, tenant string) ([]byte, int, error) {
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("X-Tenant", tenant)
	req.Header.Set("X-Deadline-Ms", strconv.FormatInt(serveDeadline.Milliseconds(), 10))
	resp, err := c.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// expected is the offline ground truth the served answers are checked
// against: per read scene its frame-0 tree and render, per write frame the
// node count of its tree.
type expected struct {
	trees      []*kdtree.Tree // by read-scene index; each owns its Builder
	bounds     []vecmath.AABB
	checksum   []string
	renders    []render.RenderStats
	writeNodes [serveTenants]int
}

func prepareExpected(scenes map[string]*scene.Scene) (*expected, error) {
	ex := &expected{}
	cfg := kdtree.BaseConfig(kdtree.AlgoInPlace)
	cfg.Workers = serveWorkers
	for _, name := range serveReadScenes {
		sc := scenes[name]
		tree, err := kdtree.NewBuilder().BuildGuarded(sc.Triangles(0), cfg, kdtree.Guard{})
		if err != nil {
			return nil, fmt.Errorf("offline build %s: %w", name, err)
		}
		im := render.NewImage(serveWidth, serveHeight)
		rs := render.RenderInto(im, tree, sc.ViewAt(0), sc.Lights, render.Options{
			Width: serveWidth, Height: serveHeight, Workers: serveWorkers, PacketWidth: servePacket,
		})
		ex.trees = append(ex.trees, tree)
		ex.bounds = append(ex.bounds, tree.Bounds())
		ex.checksum = append(ex.checksum, fmt.Sprintf("%016x", serve.FrameChecksum(im)))
		ex.renders = append(ex.renders, rs)
	}
	for i, f := range serveWriteFrames {
		tree, err := kdtree.NewBuilder().BuildGuarded(scenes[serveWriteScene].Triangles(f), cfg, kdtree.Guard{})
		if err != nil {
			return nil, fmt.Errorf("offline build write frame %d: %w", f, err)
		}
		ex.writeNodes[i] = tree.NumNodes()
	}
	return ex, nil
}

// opMix is the op mix, each class with its share in percent. Sorted by
// latency the classes are queries (20%), Toasters renders (45%), WoodDoll
// renders (15%) and writes (20%), so op_ms_p50 falls two thirds of the way
// into the Toasters-render mode and op_ms_p90 in the middle of the write
// mode, well away from any boundary between two modes.
var opMix = []struct {
	kind  opKind
	scene int // read scene; -1 draws one per op
	pct   int
}{
	{kindWrite, -1, 20},
	{kindRender, sceneToasters, 45},
	{kindRender, sceneWoodDoll, 15},
	{kindRange, -1, 10},
	{kindNN, -1, 10},
}

const (
	// deckSize is one block of the mix: every deckSize consecutive ops of a
	// tenant hold exactly pct*deckSize/100 ops of each class, in a seeded
	// random order, so runs differ in the order of work, not its amount.
	deckSize = 20
	// queryHalfWidth is a range box's half extent, as a share of the
	// scene's extent per axis.
	queryHalfWidth = 0.04
)

// opStream deals one tenant's seeded op stream.
type opStream struct {
	rng    *rand.Rand
	bounds []vecmath.AABB // per read scene
	deck   []int          // undealt opMix indices of the current block
}

func newOpStream(seed int64, bounds []vecmath.AABB) *opStream {
	return &opStream{rng: rand.New(rand.NewSource(seed)), bounds: bounds}
}

// next deals the next op, shuffling a fresh block when the last one is
// used up.
func (s *opStream) next() opSpec {
	if len(s.deck) == 0 {
		for i, c := range opMix {
			for n := 0; n < c.pct*deckSize/100; n++ {
				s.deck = append(s.deck, i)
			}
		}
		s.rng.Shuffle(len(s.deck), func(a, b int) { s.deck[a], s.deck[b] = s.deck[b], s.deck[a] })
	}
	c := opMix[s.deck[len(s.deck)-1]]
	s.deck = s.deck[:len(s.deck)-1]
	sp := opSpec{kind: c.kind, scene: c.scene}
	if sp.scene < 0 {
		sp.scene = s.rng.Intn(len(serveReadScenes))
	}
	b := s.bounds[sp.scene]
	ext := b.Max.Sub(b.Min)
	at := vecmath.V(b.Min.X+s.rng.Float64()*ext.X, b.Min.Y+s.rng.Float64()*ext.Y, b.Min.Z+s.rng.Float64()*ext.Z)
	switch sp.kind {
	case kindRange:
		h := ext.Scale(queryHalfWidth)
		sp.box = vecmath.NewAABB(at.Sub(h), at.Add(h))
	case kindNN:
		sp.point = at
	}
	return sp
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// urls returns the requests of one op, in order.
func (sp opSpec) urls(base string, tenant int) []string {
	name := serveReadScenes[sp.scene]
	switch sp.kind {
	case kindRender:
		return []string{fmt.Sprintf("%s/render?scene=%s&width=%d&packet=%d", base, name, serveWidth, servePacket)}
	case kindRange:
		q := url.Values{"scene": {name},
			"minx": {formatFloat(sp.box.Min.X)}, "miny": {formatFloat(sp.box.Min.Y)}, "minz": {formatFloat(sp.box.Min.Z)},
			"maxx": {formatFloat(sp.box.Max.X)}, "maxy": {formatFloat(sp.box.Max.Y)}, "maxz": {formatFloat(sp.box.Max.Z)}}
		return []string{base + "/range?" + q.Encode()}
	case kindNN:
		q := url.Values{"scene": {name}, "x": {formatFloat(sp.point.X)}, "y": {formatFloat(sp.point.Y)}, "z": {formatFloat(sp.point.Z)}}
		return []string{base + "/nn?" + q.Encode()}
	}
	key := fmt.Sprintf("scene=%s&frame=%d", serveWriteScene, serveWriteFrames[tenant])
	return []string{base + "/invalidate?" + key, base + "/build?" + key}
}

// clientLoop runs the tenants' closed loop until the deadline (or maxOps
// ops, when positive): one op in flight at a time, the tenants taking turns,
// each on its own connection and with its own seeded stream. Each op is sent
// only after the previous one's bodies have been read. It returns each
// tenant's ops in order.
func clientLoop(clients []*http.Client, base string, names []string, streams []*opStream,
	until time.Time, tracers []*tracer, maxOps int) [][]opRecord {
	recs := make([][]opRecord, len(clients))
	for i := 0; time.Now().Before(until) && (maxOps <= 0 || i < maxOps); i++ {
		tenant := i % len(clients)
		j := len(recs[tenant])
		sp := streams[tenant].next()
		opTr := tracers[tenant]
		if j%2 == 0 {
			opTr = nil // traced runs alternate untraced and traced ops
		}
		opID := int64(tenant)<<32 | int64(j)
		rec := opRecord{spec: sp, traced: opTr != nil}
		t0 := time.Now()
		root := opTr.begin("bench", sp.kind.String(), -1, opID)
		for _, u := range sp.urls(base, tenant) {
			path, _, _ := strings.Cut(u[len(base):], "?")
			r0 := time.Now()
			id := opTr.begin("serve", path, root, opID)
			body, status, err := get(clients[tenant], u, names[tenant])
			opTr.end(id)
			rec.reqs = append(rec.reqs, reqRecord{body: body, clientNS: time.Since(r0).Nanoseconds()})
			if err != nil || status != http.StatusOK {
				rec.err = fmt.Errorf("%s: status %d: %v %s", path, status, err, body)
				break
			}
		}
		opTr.end(root)
		rec.latency = time.Since(t0)
		recs[tenant] = append(recs[tenant], rec)
	}
	return recs
}

// runOrder returns the latencies of the correct ops in the order
// clientLoop ran them: the tenants in turn, op j of every tenant before op
// j+1 of any.
func runOrder(recs [][]opRecord) []time.Duration {
	var out []time.Duration
	for j := 0; ; j++ {
		more := false
		for _, rs := range recs {
			if j < len(rs) {
				more = true
				if rs[j].err == nil {
					out = append(out, rs[j].latency)
				}
			}
		}
		if !more {
			return out
		}
	}
}

// tenantStreams returns one seeded op stream per tenant.
func tenantStreams(seed int64, bounds []vecmath.AABB) []*opStream {
	streams := make([]*opStream, serveTenants)
	for i := range streams {
		streams[i] = newOpStream(seed+int64(i), bounds)
	}
	return streams
}

func runServe(o options) (*outcome, error) {
	var gens []float64
	setups, st, err := timeSetups(func() (*serveState, error) {
		st, err := setupServe()
		if err == nil {
			gens = append(gens, float64(st.genDur)/1e6)
		}
		return st, err
	}, func(st *serveState) { st.close() })
	if err != nil {
		return nil, err
	}
	defer st.close()

	ex, err := prepareExpected(st.scenes)
	if err != nil {
		return nil, err
	}

	// One connection per tenant; a block of warm-up ops per tenant opens it
	// and touches every endpoint before the window.
	clients := make([]*http.Client, serveTenants)
	names, warmNames := make([]string, serveTenants), make([]string, serveTenants)
	for i := range clients {
		clients[i] = newClient()
		defer clients[i].CloseIdleConnections()
		names[i], warmNames[i] = fmt.Sprintf("t%d", i), fmt.Sprintf("warm%d", i)
	}
	warm := clientLoop(clients, st.base, warmNames, tenantStreams(o.seed*7919+1000, ex.bounds),
		time.Now().Add(time.Minute), make([]*tracer, serveTenants), serveTenants*deckSize)
	for _, rs := range warm {
		for _, rec := range rs {
			if rec.err != nil {
				return nil, fmt.Errorf("warm-up: %w", rec.err)
			}
		}
	}

	runtime.GC() // the window starts from the same heap state
	before := st.srv.Metrics().Snap()
	var (
		gcw     gcWindow
		tracers = make([]*tracer, serveTenants)
	)
	start := time.Now()
	if o.trace {
		gcw = startGCWindow()
		for i := range tracers {
			tracers[i] = newTracer(start)
		}
	}
	recs := clientLoop(clients, st.base, names, tenantStreams(o.seed*7919, ex.bounds),
		start.Add(o.window), tracers, 0)
	out := &outcome{setups: setups, layers: map[string]metric{}}
	after := st.srv.Metrics().Snap()
	ops := 0
	for _, r := range recs {
		ops += len(r)
	}
	if o.trace {
		gcw.addTo(out.layers, ops)
	}

	// Output checks, after the window; a failed check marks its op.
	var t tally
	var rangeUS, nnUS []float64
	for tenant, rs := range recs {
		for i := range rs {
			rec := &rs[i]
			if rec.err == nil {
				rec.err = ex.check(*rec, tenant, &rangeUS, &nnUS)
			}
			if rec.err != nil {
				fmt.Fprintf(os.Stderr, "serve: tenant %d %s: %v\n", tenant, rec.spec.kind, rec.err)
			}
			t.record(rec.err == nil)
		}
	}
	out.ops = runOrder(recs)
	out.slices = splitRun(out.ops, runSlices)
	out.rates = sliceRates(out.slices)
	out.attempted, out.failed = t.attempted, t.failed
	if !o.trace {
		return out, nil
	}

	log, err := fetchLog(st)
	if err != nil {
		return nil, err
	}
	out.spans = merge(tracers...)
	addServeLayers(out.layers, st, ex, recs, log, before, after, out.spans)
	out.layers["scene.generate_ms"] = metric{median(gens), "ms"}
	out.layers["kdtree.range_us_p50"] = metric{median(rangeUS), "us"}
	out.layers["kdtree.nn_us_p50"] = metric{median(nnUS), "us"}
	return out, nil
}

// check compares one op's responses with the offline ground truth; the
// direct query calls it makes are timed into rangeUS and nnUS.
func (ex *expected) check(rec opRecord, tenant int, rangeUS, nnUS *[]float64) error {
	sp := rec.spec
	body := rec.reqs[len(rec.reqs)-1].body
	switch sp.kind {
	case kindRender:
		var r serve.RenderResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		want := ex.renders[sp.scene]
		if err := fresh(r.Source, "hit", r.Degraded); err != nil {
			return err
		}
		if r.Lowres || r.Width != serveWidth || r.Height != serveHeight {
			return fmt.Errorf("frame %dx%d lowres=%v", r.Width, r.Height, r.Lowres)
		}
		if r.Checksum != ex.checksum[sp.scene] {
			return fmt.Errorf("checksum %s, offline %s", r.Checksum, ex.checksum[sp.scene])
		}
		if r.PrimaryRays != want.PrimaryRays || r.ShadowRays != want.ShadowRays || r.Hits != want.Hits || r.Demotions != want.Demotions {
			return fmt.Errorf("render counters %+v, offline %+v", r, want)
		}
	case kindRange:
		var r serve.RangeResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if err := fresh(r.Source, "hit", r.Degraded); err != nil {
			return err
		}
		t0 := time.Now()
		ids := ex.trees[sp.scene].RangeQuery(sp.box)
		*rangeUS = append(*rangeUS, float64(time.Since(t0))/1e3)
		want := ids[:min(len(ids), rangeLimit)]
		if r.Count != len(ids) || !slices.Equal(r.Indices, want) {
			return fmt.Errorf("range: %d ids %v, direct %d ids %v", r.Count, r.Indices, len(ids), want)
		}
	case kindNN:
		var r serve.NNResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if err := fresh(r.Source, "hit", r.Degraded); err != nil {
			return err
		}
		t0 := time.Now()
		tri, dist, found := ex.trees[sp.scene].NearestNeighbor(sp.point)
		*nnUS = append(*nnUS, float64(time.Since(t0))/1e3)
		if r.Found != found || r.Triangle != tri || r.Distance != dist {
			return fmt.Errorf("nn: (%v %d %v), direct (%v %d %v)", r.Found, r.Triangle, r.Distance, found, tri, dist)
		}
	case kindWrite:
		var r serve.BuildResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if err := fresh(r.Source, "built", r.Degraded); err != nil {
			return err
		}
		if r.Nodes != ex.writeNodes[tenant] {
			return fmt.Errorf("built %d nodes, offline %d", r.Nodes, ex.writeNodes[tenant])
		}
	}
	return nil
}

// fresh rejects every rung below the expected source: a degraded marker, a
// cache join, a miss where a hit was due.
func fresh(source, want, degraded string) error {
	if degraded != "" || source != want {
		return fmt.Errorf("source %q degraded %q, want %q", source, degraded, want)
	}
	return nil
}

// fetchLog reads the server's request ring log.
func fetchLog(st *serveState) ([]serve.LogRecord, error) {
	body, status, err := get(st.client, st.base+"/log", "admin")
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("/log: status %d: %v", status, err)
	}
	var log []serve.LogRecord
	if err := json.Unmarshal(body, &log); err != nil {
		return nil, fmt.Errorf("/log: %w", err)
	}
	return log, nil
}

// addServeLayers derives the serve, render and kdtree per-layer metrics
// from the client records, the server's log and /metrics deltas.
func addServeLayers(L map[string]metric, st *serveState, ex *expected, recs [][]opRecord,
	log []serve.LogRecord, before, after serve.Snapshot, spans []span) {
	var reads, writes, traced, untraced, bytes, build, renderMS, nsPerRay, server, transport, spine []float64
	for tenant, rs := range recs {
		// The tenant's log records, in completion order, pair one-to-one
		// with its requests: each tenant has one request in flight.
		var tlog []serve.LogRecord
		for _, lr := range log {
			if lr.Tenant == fmt.Sprintf("t%d", tenant) {
				tlog = append(tlog, lr)
			}
		}
		nreq := 0
		for _, rec := range rs {
			nreq += len(rec.reqs)
		}
		paired := len(tlog) == nreq
		if !paired {
			fmt.Fprintf(os.Stderr, "serve: tenant %d: %d log records for %d requests; transport not derived\n",
				tenant, len(tlog), nreq)
		}
		k := 0
		for _, rec := range rs {
			ms := float64(rec.latency) / 1e6
			if rec.spec.kind == kindWrite {
				writes = append(writes, ms)
			} else {
				reads = append(reads, ms)
			}
			if rec.traced {
				traced = append(traced, ms)
			} else {
				untraced = append(untraced, ms)
			}
			for _, rq := range rec.reqs {
				bytes = append(bytes, float64(len(rq.body)))
				if paired {
					server = append(server, float64(tlog[k].NS)/1e6)
					if rec.traced {
						transport = append(transport, float64(rq.clientNS-tlog[k].NS)/1e6)
					}
				}
				switch rec.spec.kind {
				case kindRender:
					var r serve.RenderResponse
					if json.Unmarshal(rq.body, &r) == nil && r.RenderNS > 0 {
						renderMS = append(renderMS, float64(r.RenderNS)/1e6)
						if rays := r.PrimaryRays + r.ShadowRays; rays > 0 {
							nsPerRay = append(nsPerRay, float64(r.RenderNS)/float64(rays))
						}
						if paired {
							spine = append(spine, float64(tlog[k].NS-r.RenderNS)/1e6)
						}
					}
				case kindWrite:
					var r serve.BuildResponse
					if json.Unmarshal(rq.body, &r) == nil && r.BuildNS > 0 {
						build = append(build, float64(r.BuildNS)/1e6)
					}
				}
				k++
			}
		}
	}
	L["serve.read_ms_p50"] = metric{percentile(reads, 0.5), "ms"}
	L["serve.read_ms_p90"] = metric{percentile(reads, 0.9), "ms"}
	L["serve.write_ms_p50"] = metric{percentile(writes, 0.5), "ms"}
	L["serve.server_ms_p50"] = metric{median(server), "ms"}
	L["serve.transport_ms_p50"] = metric{median(transport), "ms"}
	L["serve.spine_ms_p50"] = metric{median(spine), "ms"}
	L["serve.cache_hits"] = metric{float64(after.CacheHits - before.CacheHits), "count"}
	L["serve.cache_misses"] = metric{float64(after.CacheMisses - before.CacheMisses), "count"}
	L["serve.builds_ok"] = metric{float64(after.BuildsOK - before.BuildsOK), "count"}
	L["serve.resp_bytes_p50"] = metric{median(bytes), "bytes"}
	L["trace.overhead_pct"] = metric{overheadPct(traced, untraced), "%"}
	L["kdtree.build_ms_p50"] = metric{percentile(build, 0.5), "ms"}
	L["kdtree.build_ms_p90"] = metric{percentile(build, 0.9), "ms"}
	L["render.render_ms_p50"] = metric{median(renderMS), "ms"}
	L["render.ns_per_ray"] = metric{median(nsPerRay), "ns"}
	addSelfTimes(L, spans)

	// Exact counters, summed over the read keys' offline trees and frames.
	var tree kdtree.BuildStats
	var rs render.RenderStats
	for i := range serveReadScenes {
		s := ex.trees[i].Stats()
		tree.NumNodes += s.NumNodes
		tree.LeafRefs += s.LeafRefs
		tree.MaxDepth = max(tree.MaxDepth, s.MaxDepth)
		r := ex.renders[i]
		rs.PrimaryRays += r.PrimaryRays
		rs.ShadowRays += r.ShadowRays
		rs.Hits += r.Hits
		rs.Demotions += r.Demotions
		rs.PacketRays += r.PacketRays
	}
	addTreeStats(L, tree)
	addRenderCounts(L, rs)

	var mats []float64
	for _, name := range serveReadScenes {
		mats = append(mats, timeTriangles(st.scenes[name], []int{0}, 11)...)
	}
	L["scene.triangles_ms_p50"] = metric{median(mats), "ms"}
	ws := st.scenes[serveWriteScene]
	cfg := kdtree.BaseConfig(kdtree.AlgoInPlace)
	cfg.Workers = serveWorkers
	addBuildAllocs(L, kdtree.NewBuilder(), ws.Triangles(serveWriteFrames[0]), cfg)
}
