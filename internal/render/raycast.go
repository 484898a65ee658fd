package render

import (
	"fmt"
	"io"
	"math"
	"sync/atomic"

	"kdtune/internal/faultinject"
	"kdtune/internal/kdtree"
	"kdtune/internal/parallel"
	"kdtune/internal/scene"
	"kdtune/internal/vecmath"
)

// Image is a simple float RGB framebuffer.
type Image struct {
	W, H int
	Pix  []float64 // 3*W*H, row-major, bottom row first
}

// NewImage allocates a black framebuffer.
func NewImage(w, h int) *Image {
	return &Image{W: w, H: h, Pix: make([]float64, 3*w*h)}
}

// reshape resizes the framebuffer in place, reallocating only on growth —
// the frame loop renders into the same Image every frame.
func (im *Image) reshape(w, h int) {
	im.W, im.H = w, h
	n := 3 * w * h
	if cap(im.Pix) < n {
		im.Pix = make([]float64, n)
		return
	}
	im.Pix = im.Pix[:n]
}

// set stores an RGB triple at pixel (x, y).
func (im *Image) set(x, y int, r, g, b float64) {
	i := 3 * (y*im.W + x)
	im.Pix[i], im.Pix[i+1], im.Pix[i+2] = r, g, b
}

// At returns the RGB triple at pixel (x, y).
func (im *Image) At(x, y int) (r, g, b float64) {
	i := 3 * (y*im.W + x)
	return im.Pix[i], im.Pix[i+1], im.Pix[i+2]
}

// WritePPM encodes the framebuffer as a binary PPM (P6) with simple
// clamping; enough to eyeball renders without third-party codecs.
func (im *Image) WritePPM(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "P6\n%d %d\n255\n", im.W, im.H); err != nil {
		return err
	}
	row := make([]byte, 3*im.W)
	// PPM stores top row first; the framebuffer is bottom-first.
	for y := im.H - 1; y >= 0; y-- {
		for x := 0; x < im.W; x++ {
			r, g, b := im.At(x, y)
			row[3*x] = clamp8(r)
			row[3*x+1] = clamp8(g)
			row[3*x+2] = clamp8(b)
		}
		if _, err := w.Write(row); err != nil {
			return err
		}
	}
	return nil
}

func clamp8(v float64) byte {
	if v <= 0 {
		return 0
	}
	if v >= 1 {
		return 255
	}
	return byte(v * 255)
}

// Options controls a render pass.
type Options struct {
	Width, Height int
	Workers       int     // parallelism across rays; <=0 = GOMAXPROCS
	Ambient       float64 // ambient light term (default 0.1)
	Epsilon       float64 // shadow-ray offset (default 1e-6 of scene diagonal)

	// Samples is the supersampling factor per pixel axis (1 = one centred
	// ray per pixel, n = n*n stratified rays averaged). The paper keeps a
	// "fixed quality setting"; raising Samples is how a client would trade
	// quality against the frame time the tuner is minimising.
	Samples int

	// PacketWidth bundles up to this many coherent rays per kD-tree
	// traversal (see kdtree.IntersectPacket). 0 or 1 selects the scalar
	// path; values above kdtree.MaxPacketWidth are clamped. Packets apply
	// only when Samples == 1 (the paper's quality setting); pixels are
	// bitwise identical to the scalar path either way, so this is purely a
	// speed knob — which is why the autotuner co-tunes it with the tree
	// parameters.
	PacketWidth int

	// TileSize is the square tile edge the packet path decomposes the
	// image into (default 16). Rays are packed in row-major order within a
	// tile, so the tile shape controls packet coherence; it is the second
	// render-side tunable.
	TileSize int

	// Cancel, when non-nil, makes the render cooperatively cancelable: the
	// workers check it at every pixel row (scalar path) or tile (packet
	// path) and drain early once it fires. A canceled render leaves the
	// framebuffer partially written — callers that care must check
	// Cancel.Canceled() (or RenderStats.Canceled) before using the pixels.
	// This is how a request deadline propagates into the traversal
	// kernels: link the Canceler to the request context with
	// parallel.LinkContext. nil keeps the previous run-to-completion
	// behaviour.
	Cancel *parallel.Canceler
}

// RenderStats reports what the ray caster did — used by tests and by the
// occlusion experiments (how much of the tree a frame actually touched).
type RenderStats struct {
	PrimaryRays int
	ShadowRays  int
	Hits        int

	// Packet-path counters (zero under scalar rendering): Packets counts
	// packet traversals (primary and shadow), Demotions counts lanes that
	// fell back to scalar traversal mid-walk. Demotions/PacketRays is the
	// demotion rate the bench report records.
	Packets    int
	Demotions  int
	PacketRays int // rays traced through packets (primary + shadow)

	// Canceled reports that Options.Cancel fired while the frame was in
	// flight: some rows/tiles were skipped and the framebuffer is partial.
	Canceled bool
}

// Render ray-casts the scene geometry through tree from the given view and
// returns a freshly allocated framebuffer. The tree must have been built
// over exactly the triangles of the frame being rendered; lights and camera
// come from the scene view (§V-A). Frame loops should allocate one Image
// and call RenderInto instead.
func Render(tree *kdtree.Tree, view scene.View, lights []vecmath.Vec3, opt Options) (*Image, RenderStats) {
	opt, eps := opt.normalized(tree)
	im := NewImage(opt.Width, opt.Height)
	stats := renderCore(im, tree, view, lights, opt, eps)
	return im, stats
}

// RenderInto renders into a caller-owned framebuffer, resizing it in place
// when the requested dimensions differ. Reusing one Image across frames
// removes the largest per-frame render allocation.
func RenderInto(im *Image, tree *kdtree.Tree, view scene.View, lights []vecmath.Vec3, opt Options) RenderStats {
	opt, eps := opt.normalized(tree)
	im.reshape(opt.Width, opt.Height)
	return renderCore(im, tree, view, lights, opt, eps)
}

// normalized applies the option defaults and derives the shadow epsilon.
func (opt Options) normalized(tree *kdtree.Tree) (Options, float64) {
	if opt.Width <= 0 {
		opt.Width = 256
	}
	if opt.Height <= 0 {
		opt.Height = opt.Width * 3 / 4
	}
	if opt.Ambient == 0 {
		opt.Ambient = 0.1
	}
	if opt.Samples < 1 {
		opt.Samples = 1
	}
	if opt.PacketWidth < 1 {
		opt.PacketWidth = 1
	}
	if opt.PacketWidth > kdtree.MaxPacketWidth {
		opt.PacketWidth = kdtree.MaxPacketWidth
	}
	if opt.TileSize < 1 {
		opt.TileSize = 16
	}
	eps := opt.Epsilon
	if eps <= 0 {
		eps = 1e-6 * (1 + tree.Bounds().Diagonal().Len())
	}
	return opt, eps
}

func renderCore(im *Image, tree *kdtree.Tree, view scene.View, lights []vecmath.Vec3, opt Options, eps float64) RenderStats {
	cam := NewCamera(view, float64(opt.Width)/float64(opt.Height))
	if opt.PacketWidth > 1 && opt.Samples == 1 {
		return renderPackets(im, tree, cam, lights, opt, eps)
	}
	tris := tree.Triangles()

	// Each worker accumulates stats privately and folds them in with three
	// atomic adds when its rows are done — no lock, no cache-line ping-pong
	// on the hot path.
	var primary, shadow, hits atomic.Int64

	// Parallelise across rows of pixels — "as the tree can be traversed
	// independently for every ray, we parallelize intersection testing
	// across different rays". A nil opt.Cancel is never canceled, so the
	// unguarded frame loop pays one atomic load per row.
	parallel.For(opt.Cancel, opt.Height, opt.Workers, func(yLo, yHi int) {
		local := RenderStats{}
		samples := opt.Samples
		inv := 1.0 / float64(samples*samples)
		// The t-dependent part of the ray direction is shared by a whole row
		// of sub-pixel samples; hoist it out of the x loop (one RowBase per
		// (row, sub-row) instead of per sample).
		rowBases := make([]vecmath.Vec3, samples)
		for y := yLo; y < yHi; y++ {
			if opt.Cancel.Canceled() {
				break
			}
			if faultinject.Active() {
				faultinject.Check(faultinject.SiteRenderTile, y)
			}
			for sy := 0; sy < samples; sy++ {
				t := (float64(y) + (float64(sy)+0.5)/float64(samples)) / float64(opt.Height)
				rowBases[sy] = cam.RowBase(t)
			}
			for x := 0; x < opt.Width; x++ {
				var accR, accG, accB float64
				for sy := 0; sy < samples; sy++ {
					for sx := 0; sx < samples; sx++ {
						// Stratified sub-pixel positions.
						s := (float64(x) + (float64(sx)+0.5)/float64(samples)) / float64(opt.Width)
						ray := cam.RayAt(rowBases[sy], s)
						local.PrimaryRays++

						hit, ok := tree.Intersect(ray, 1e-9, math.Inf(1))
						if !ok {
							accR += 0.05
							accG += 0.05
							accB += 0.08 // background
							continue
						}
						local.Hits++

						p := ray.At(hit.T)
						n := tris[hit.Tri].UnitNormal()
						if n.Dot(ray.Dir) > 0 {
							n = n.Neg() // two-sided shading
						}

						// Lambert shading with shadow rays to every light.
						shade := opt.Ambient
						for _, l := range lights {
							toLight := l.Sub(p)
							cos := n.Dot(toLight.Normalize())
							if cos <= 0 {
								continue
							}
							local.ShadowRays++
							shadow := vecmath.Towards(p.Add(n.Scale(eps)), l)
							if !tree.Occluded(shadow, 1e-9, 1-1e-9) {
								shade += cos / float64(len(lights)) * 0.9
							}
						}
						// Colour keyed to the primitive index so structure
						// stays visible without materials.
						cr, cg, cb := triColor(hit.Tri)
						accR += shade * cr
						accG += shade * cg
						accB += shade * cb
					}
				}
				im.set(x, y, accR*inv, accG*inv, accB*inv)
			}
		}
		primary.Add(int64(local.PrimaryRays))
		shadow.Add(int64(local.ShadowRays))
		hits.Add(int64(local.Hits))
	})
	return RenderStats{
		PrimaryRays: int(primary.Load()),
		ShadowRays:  int(shadow.Load()),
		Hits:        int(hits.Load()),
		Canceled:    opt.Cancel.Canceled(),
	}
}

// triColor hashes a triangle index into a stable pastel colour.
func triColor(i int) (r, g, b float64) {
	h := uint32(i) * 2654435761
	return 0.5 + 0.5*float64(h&255)/255,
		0.5 + 0.5*float64((h>>8)&255)/255,
		0.5 + 0.5*float64((h>>16)&255)/255
}
