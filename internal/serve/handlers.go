package serve

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"kdtune/internal/kdtree"
	"kdtune/internal/parallel"
	"kdtune/internal/render"
	"kdtune/internal/scene"
	"kdtune/internal/vecmath"
)

// The endpoint implementations. Each runs inside wrap's spine (deadline,
// admission, recover, metrics, log) and returns either a *result or an error
// — typed *Error where the status matters.

// algorithmByName maps the names Algorithm.String produces back to values;
// the serving surface accepts the same spelling the figures use.
func algorithmByName(name string) (kdtree.Algorithm, error) {
	all := append(append([]kdtree.Algorithm{}, kdtree.Algorithms...), kdtree.AlgoMedian)
	for _, a := range all {
		if a.String() == name {
			return a, nil
		}
	}
	return 0, &Error{Status: 400, Code: "bad-algo", Msg: fmt.Sprintf("unknown algorithm %q", name)}
}

// sceneOf resolves the scene, frame and algorithm parameters.
func (s *Server) sceneOf(r *http.Request) (*scene.Scene, int, kdtree.Algorithm, error) {
	q := r.URL.Query()
	name := q.Get("scene")
	if name == "" {
		return nil, 0, 0, &Error{Status: 400, Code: "bad-scene", Msg: "missing scene parameter"}
	}
	sc, ok := s.scenes[name]
	if !ok {
		return nil, 0, 0, &Error{Status: 404, Code: "no-scene", Msg: fmt.Sprintf("unknown scene %q", name)}
	}
	frame := intParam(q.Get("frame"), 0)
	algo := s.cfg.Algorithm
	if an := q.Get("algo"); an != "" {
		var err error
		if algo, err = algorithmByName(an); err != nil {
			return nil, 0, 0, err
		}
	}
	return sc, frame, algo, nil
}

// geomKey memoises GeometryKey per (scene, frame, algorithm): the triangles
// of a given frame are deterministic, so the hash is computed once and the
// per-request cost is a map lookup. tris materialises the frame; only a memo
// miss calls it.
func (s *Server) geomKey(sc *scene.Scene, frame int, algo kdtree.Algorithm, tris func() []vecmath.Triangle) string {
	memo := fmt.Sprintf("%s\x00%d\x00%d", sc.Name, frame, algo)
	s.keyMu.Lock()
	key, ok := s.keys[memo]
	s.keyMu.Unlock()
	if ok {
		return key
	}
	key = GeometryKey(tris(), algo)
	s.keyMu.Lock()
	s.keys[memo] = key
	s.keyMu.Unlock()
	return key
}

// frameTris returns a function that materialises sc's frame on its first
// call and returns the same slice after. A dynamic scene allocates and
// transforms a whole frame per Triangles call, so a request pays for it only
// when it hashes the frame or builds a tree over it.
func frameTris(sc *scene.Scene, frame int) func() []vecmath.Triangle {
	var tris []vecmath.Triangle
	return func() []vecmath.Triangle {
		if tris == nil {
			tris = sc.Triangles(frame)
		}
		return tris
	}
}

// tree walks the cache (and its degradation ladder) for the request's scene.
// The caller must Release the returned tree.
func (s *Server) tree(ctx context.Context, sc *scene.Scene, frame int, algo kdtree.Algorithm) (*CachedTree, string, TreeSource, error) {
	tris := frameTris(sc, frame)
	key := s.geomKey(sc, frame, algo, tris)
	cfg := kdtree.BaseConfig(algo)
	cfg.Workers = s.cfg.Workers
	ct, src, err := s.cache.Get(ctx, key, tris, cfg, s.cfg.Guard)
	return ct, key, src, err
}

// BuildResponse is /build's body.
type BuildResponse struct {
	Scene      string `json:"scene"`
	Frame      int    `json:"frame"`
	Algo       string `json:"algo"`
	Key        string `json:"key"`
	Generation uint64 `json:"generation"`
	Source     string `json:"source"`
	Degraded   string `json:"degraded,omitempty"`
	Nodes      int    `json:"nodes"`
	Triangles  int    `json:"triangles"`
	BuildNS    int64  `json:"build_ns"`
}

func (s *Server) handleBuild(ctx context.Context, r *http.Request, rec *LogRecord) (*result, error) {
	sc, frame, algo, err := s.sceneOf(r)
	if err != nil {
		return nil, err
	}
	ct, key, src, err := s.tree(ctx, sc, frame, algo)
	if err != nil {
		return nil, err
	}
	defer ct.Release()
	degraded := ""
	if src.Degraded() {
		degraded = src.String()
	}
	return &result{
		scene:    sc.Name,
		degraded: degraded,
		body: BuildResponse{
			Scene: sc.Name, Frame: frame, Algo: ct.Algo.String(),
			Key: key, Generation: ct.Gen, Source: src.String(), Degraded: degraded,
			Nodes: ct.Tree.NumNodes(), Triangles: sc.NumTriangles(), BuildNS: ct.BuildNS,
		},
	}, nil
}

// RenderResponse is /render's body. Checksum digests the framebuffer
// (FrameChecksum), so a client — or a drill — can compare a served frame
// bitwise against an offline render without transferring pixels.
type RenderResponse struct {
	Scene      string `json:"scene"`
	Frame      int    `json:"frame"`
	Algo       string `json:"algo"`
	Generation uint64 `json:"generation"`
	Source     string `json:"source"`
	Degraded   string `json:"degraded,omitempty"`

	Width    int    `json:"width"`
	Height   int    `json:"height"`
	Lowres   bool   `json:"lowres,omitempty"`
	Checksum string `json:"checksum"`

	PrimaryRays int `json:"primary_rays"`
	ShadowRays  int `json:"shadow_rays"`
	Hits        int `json:"hits"`
	Packets     int `json:"packets,omitempty"`
	Demotions   int `json:"demotions,omitempty"`

	BuildNS  int64 `json:"build_ns"`
	RenderNS int64 `json:"render_ns"`
}

// renderBudgetFraction is how much of the remaining deadline the lowres
// decision budgets for the render itself; the rest covers serialization and
// scheduling slop.
const renderBudgetFraction = 0.8

func (s *Server) handleRender(ctx context.Context, r *http.Request, rec *LogRecord) (*result, error) {
	sc, frame, algo, err := s.sceneOf(r)
	if err != nil {
		return nil, err
	}
	q := r.URL.Query()
	width := intParam(q.Get("width"), 160)
	height := intParam(q.Get("height"), width*3/4)
	packet := intParam(q.Get("packet"), 1)
	tile := intParam(q.Get("tile"), 0)
	if width < 8 || height < 6 || width > 4096 || height > 4096 {
		return nil, &Error{Status: 400, Code: "bad-size", Msg: "width/height out of range"}
	}

	ct, key, src, err := s.tree(ctx, sc, frame, algo)
	if err != nil {
		return nil, err
	}
	defer ct.Release()

	var degraded []string
	if src.Degraded() {
		degraded = append(degraded, src.String())
	}

	// Lowres rung: if the estimator has seen this (geometry, packet) before
	// and predicts the full frame cannot fit the remaining deadline, shrink
	// until it does rather than render a frame we know we must abandon.
	estKey := fmt.Sprintf("%s/p%d", key, packet)
	w, h := width, height
	lowres := false
	if dl, hasDL := ctx.Deadline(); hasDL {
		budget := float64(time.Until(dl).Nanoseconds()) * renderBudgetFraction
		if est, known := s.est.EstimateNS(estKey, w*h); known && est > budget {
			var steps int
			w, h, steps = shrinkToFit(w, h, est, budget)
			if steps > 0 {
				lowres = true
				degraded = append(degraded, "lowres")
				s.met.DegradedLowres.Add(1)
			}
		}
	}

	var cc parallel.Canceler
	stop := parallel.LinkContext(ctx, &cc)
	im := render.NewImage(w, h)
	start := time.Now()
	st := render.RenderInto(im, ct.Tree, sc.ViewAt(frame), sc.Lights, render.Options{
		Width: w, Height: h, Workers: s.cfg.Workers,
		PacketWidth: packet, TileSize: tile, Cancel: &cc,
	})
	renderNS := time.Since(start).Nanoseconds()
	stop()
	if st.Canceled {
		// The frame is partial; a partial frame is not a degraded success,
		// it is the deadline having run out mid-kernel.
		return nil, &Error{Status: 504, Code: "deadline", Msg: "deadline expired mid-render"}
	}
	s.est.Observe(estKey, w*h, renderNS)

	return &result{
		scene:    sc.Name,
		degraded: strings.Join(degraded, "+"),
		body: RenderResponse{
			Scene: sc.Name, Frame: frame, Algo: ct.Algo.String(),
			Generation: ct.Gen, Source: src.String(), Degraded: strings.Join(degraded, "+"),
			Width: w, Height: h, Lowres: lowres,
			Checksum:    fmt.Sprintf("%016x", FrameChecksum(im)),
			PrimaryRays: st.PrimaryRays, ShadowRays: st.ShadowRays, Hits: st.Hits,
			Packets: st.Packets, Demotions: st.Demotions,
			BuildNS: ct.BuildNS, RenderNS: renderNS,
		},
	}, nil
}

// RangeResponse is /range's body: the indices of triangles overlapping the
// query box (capped at limit, default 64; Count is always the full count).
type RangeResponse struct {
	Scene      string `json:"scene"`
	Generation uint64 `json:"generation"`
	Source     string `json:"source"`
	Degraded   string `json:"degraded,omitempty"`
	Count      int    `json:"count"`
	Indices    []int  `json:"indices"`
}

func (s *Server) handleRange(ctx context.Context, r *http.Request, rec *LogRecord) (*result, error) {
	sc, frame, algo, err := s.sceneOf(r)
	if err != nil {
		return nil, err
	}
	q := r.URL.Query()
	box := vecmath.NewAABB(
		vecmath.V(floatParam(q.Get("minx"), 0), floatParam(q.Get("miny"), 0), floatParam(q.Get("minz"), 0)),
		vecmath.V(floatParam(q.Get("maxx"), 0), floatParam(q.Get("maxy"), 0), floatParam(q.Get("maxz"), 0)),
	)
	limit := intParam(q.Get("limit"), 64)

	ct, _, src, err := s.tree(ctx, sc, frame, algo)
	if err != nil {
		return nil, err
	}
	defer ct.Release()
	ids := ct.Tree.RangeQuery(box)
	count := len(ids)
	if limit >= 0 && count > limit {
		ids = ids[:limit]
	}
	degraded := ""
	if src.Degraded() {
		degraded = src.String()
	}
	return &result{
		scene:    sc.Name,
		degraded: degraded,
		body: RangeResponse{
			Scene: sc.Name, Generation: ct.Gen, Source: src.String(), Degraded: degraded,
			Count: count, Indices: ids,
		},
	}, nil
}

// NNResponse is /nn's body.
type NNResponse struct {
	Scene      string  `json:"scene"`
	Generation uint64  `json:"generation"`
	Source     string  `json:"source"`
	Degraded   string  `json:"degraded,omitempty"`
	Found      bool    `json:"found"`
	Triangle   int     `json:"triangle"`
	Distance   float64 `json:"distance"`
}

func (s *Server) handleNN(ctx context.Context, r *http.Request, rec *LogRecord) (*result, error) {
	sc, frame, algo, err := s.sceneOf(r)
	if err != nil {
		return nil, err
	}
	q := r.URL.Query()
	p := vecmath.V(floatParam(q.Get("x"), 0), floatParam(q.Get("y"), 0), floatParam(q.Get("z"), 0))

	ct, _, src, err := s.tree(ctx, sc, frame, algo)
	if err != nil {
		return nil, err
	}
	defer ct.Release()
	tri, dist, found := ct.Tree.NearestNeighbor(p)
	degraded := ""
	if src.Degraded() {
		degraded = src.String()
	}
	return &result{
		scene:    sc.Name,
		degraded: degraded,
		body: NNResponse{
			Scene: sc.Name, Generation: ct.Gen, Source: src.String(), Degraded: degraded,
			Found: found, Triangle: tri, Distance: dist,
		},
	}, nil
}

// InvalidateResponse is /invalidate's body.
type InvalidateResponse struct {
	Scene      string `json:"scene"`
	Key        string `json:"key"`
	Generation uint64 `json:"generation"`
}

// handleInvalidate bumps the generation of the scene's cache entry: the
// current tree becomes the stale rung, and the next request rebuilds — the
// cache-invalidation path the race drill (SiteServeCache) widens.
func (s *Server) handleInvalidate(ctx context.Context, r *http.Request, rec *LogRecord) (*result, error) {
	sc, frame, algo, err := s.sceneOf(r)
	if err != nil {
		return nil, err
	}
	key := s.geomKey(sc, frame, algo, frameTris(sc, frame))
	gen := s.cache.Invalidate(key)
	return &result{
		scene: sc.Name,
		body:  InvalidateResponse{Scene: sc.Name, Key: key, Generation: gen},
	}, nil
}

// handleMetrics serves the counter snapshot; deliberately outside admission
// so operators can observe a saturated server.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.met.Snap()
	snap.Breakers = s.adm.breakerStates()
	writeJSON(w, 200, snap)
}

// handleLog serves the most recent ring-log records (?n= caps the count).
func (s *Server) handleLog(w http.ResponseWriter, r *http.Request) {
	n := intParam(r.URL.Query().Get("n"), 0)
	writeJSON(w, 200, s.rlog.Snapshot(n))
}

// handleHealthz is the liveness probe: cheap, unsheddable, no admission.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, 200, map[string]any{"ok": true, "scenes": len(s.scenes)})
}

func intParam(raw string, def int) int {
	if raw == "" {
		return def
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return def
	}
	return v
}

func floatParam(raw string, def float64) float64 {
	if raw == "" {
		return def
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return def
	}
	return v
}
