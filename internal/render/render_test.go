package render

import (
	"bytes"
	"math"
	"testing"

	"kdtune/internal/kdtree"
	"kdtune/internal/scene"
	"kdtune/internal/vecmath"
)

// floorScene is a single bright quad below a camera looking down.
func floorScene() ([]vecmath.Triangle, scene.View, []vecmath.Vec3) {
	tris := []vecmath.Triangle{
		vecmath.Tri(vecmath.V(-5, 0, -5), vecmath.V(5, 0, -5), vecmath.V(5, 0, 5)),
		vecmath.Tri(vecmath.V(-5, 0, -5), vecmath.V(5, 0, 5), vecmath.V(-5, 0, 5)),
	}
	view := scene.View{
		Eye: vecmath.V(0, 5, 0.01), LookAt: vecmath.V(0, 0, 0), Up: vecmath.V(0, 1, 0), FOV: 60,
	}
	lights := []vecmath.Vec3{vecmath.V(0, 10, 0)}
	return tris, view, lights
}

func buildTree(tris []vecmath.Triangle) *kdtree.Tree {
	cfg := kdtree.BaseConfig(kdtree.AlgoNodeLevel)
	cfg.Workers = 4
	return kdtree.Build(tris, cfg)
}

func TestCameraRaysSpanFrustum(t *testing.T) {
	view := scene.View{Eye: vecmath.V(0, 0, 0), LookAt: vecmath.V(0, 0, -1), Up: vecmath.V(0, 1, 0), FOV: 90}
	cam := NewCamera(view, 1)
	center := cam.Ray(0.5, 0.5)
	if !center.Dir.Normalize().ApproxEq(vecmath.V(0, 0, -1), 1e-9) {
		t.Fatalf("center ray direction %v", center.Dir.Normalize())
	}
	// At 90° vertical FOV, the top-center ray makes 45° with the view axis.
	top := cam.Ray(0.5, 1.0).Dir.Normalize()
	if math.Abs(top.Y-math.Sqrt(0.5)) > 1e-9 {
		t.Fatalf("top ray Y = %v, want ~%v", top.Y, math.Sqrt(0.5))
	}
	left := cam.Ray(0, 0.5).Dir.Normalize()
	if left.X >= 0 {
		t.Fatalf("left ray should point left, got %v", left)
	}
}

func TestRenderFloorLitAboveBackgroundElsewhere(t *testing.T) {
	tris, view, lights := floorScene()
	tree := buildTree(tris)
	im, stats := Render(tree, view, lights, Options{Width: 64, Height: 48, Workers: 4})
	if stats.PrimaryRays != 64*48 {
		t.Fatalf("PrimaryRays = %d", stats.PrimaryRays)
	}
	if stats.Hits == 0 {
		t.Fatal("no hits on a floor filling the view")
	}
	// Center pixel sees the lit floor: noticeably brighter than ambient.
	r, g, b := im.At(32, 24)
	if r+g+b < 0.3 {
		t.Fatalf("center pixel too dark: %v %v %v", r, g, b)
	}
}

func TestRenderEmptySceneIsBackground(t *testing.T) {
	tree := buildTree(nil)
	view := scene.View{Eye: vecmath.V(0, 0, 0), LookAt: vecmath.V(0, 0, -1), Up: vecmath.V(0, 1, 0), FOV: 60}
	im, stats := Render(tree, view, nil, Options{Width: 16, Height: 16})
	if stats.Hits != 0 {
		t.Fatalf("hits in empty scene: %d", stats.Hits)
	}
	r, g, b := im.At(8, 8)
	if r != 0.05 || g != 0.05 || b != 0.08 {
		t.Fatalf("background colour wrong: %v %v %v", r, g, b)
	}
}

func TestShadowsDarkenOccludedRegion(t *testing.T) {
	// Floor plus a blocker ABOVE the camera (outside the frustum), between
	// the light at y=10 and the floor: its shadow covers the floor centre
	// (similar triangles: a 1x1 quad at y=8 shades ~5x5 at y=0) while the
	// blocker itself is never visible.
	tris, view, lights := floorScene()
	blocker := []vecmath.Triangle{
		vecmath.Tri(vecmath.V(-0.5, 8, -0.5), vecmath.V(0.5, 8, -0.5), vecmath.V(0.5, 8, 0.5)),
		vecmath.Tri(vecmath.V(-0.5, 8, -0.5), vecmath.V(0.5, 8, 0.5), vecmath.V(-0.5, 8, 0.5)),
	}
	treeNoBlock := buildTree(tris)
	treeBlock := buildTree(append(append([]vecmath.Triangle{}, tris...), blocker...))

	imLit, _ := Render(treeNoBlock, view, lights, Options{Width: 64, Height: 64})
	imShad, _ := Render(treeBlock, view, lights, Options{Width: 64, Height: 64})

	rl, gl, bl := imLit.At(32, 32)
	rs, gs, bs := imShad.At(32, 32)
	if rs+gs+bs >= rl+gl+bl {
		t.Fatalf("centre pixel not darkened by shadow: %v >= %v", rs+gs+bs, rl+gl+bl)
	}
	avg := func(im *Image) float64 {
		s := 0.0
		for _, p := range im.Pix {
			s += p
		}
		return s / float64(len(im.Pix))
	}
	if avg(imShad) >= avg(imLit) {
		t.Fatalf("blocker did not darken the image: %v >= %v", avg(imShad), avg(imLit))
	}
}

func TestRenderDeterministicAcrossWorkerCounts(t *testing.T) {
	tris, view, lights := floorScene()
	tree := buildTree(tris)
	im1, _ := Render(tree, view, lights, Options{Width: 40, Height: 30, Workers: 1})
	im8, _ := Render(tree, view, lights, Options{Width: 40, Height: 30, Workers: 8})
	for i := range im1.Pix {
		if im1.Pix[i] != im8.Pix[i] {
			t.Fatalf("pixel data differs between worker counts at %d", i)
		}
	}
}

func TestRenderOnRealSceneAllAlgorithms(t *testing.T) {
	s := scene.WoodDoll()
	tris := s.Triangles(0)
	for _, a := range kdtree.Algorithms {
		cfg := kdtree.BaseConfig(a)
		cfg.Workers = 4
		cfg.R = 64
		tree := kdtree.Build(tris, cfg)
		_, stats := Render(tree, s.View, s.Lights, Options{Width: 48, Height: 36, Workers: 4})
		if stats.Hits == 0 {
			t.Fatalf("%v: camera sees nothing of WoodDoll", a)
		}
		frac := float64(stats.Hits) / float64(stats.PrimaryRays)
		if frac < 0.2 {
			t.Fatalf("%v: only %.0f%% of rays hit; camera badly placed", a, 100*frac)
		}
	}
}

func TestRendersAgreeAcrossAlgorithms(t *testing.T) {
	s := scene.WoodDoll()
	tris := s.Triangles(3)
	var ref *Image
	for _, a := range kdtree.Algorithms {
		cfg := kdtree.BaseConfig(a)
		cfg.Workers = 4
		cfg.R = 64
		tree := kdtree.Build(tris, cfg)
		im, _ := Render(tree, s.View, s.Lights, Options{Width: 32, Height: 24})
		if ref == nil {
			ref = im
			continue
		}
		diff := 0
		for i := range im.Pix {
			if math.Abs(im.Pix[i]-ref.Pix[i]) > 1e-9 {
				diff++
			}
		}
		// Identical-distance hits may shade with a different triangle's
		// colour; allow a small fraction of differing components.
		if float64(diff) > 0.01*float64(len(im.Pix)) {
			t.Fatalf("%v: %d/%d pixel components differ from node-level render", a, diff, len(im.Pix))
		}
	}
}

func TestWritePPM(t *testing.T) {
	im := NewImage(4, 2)
	im.set(0, 1, 1, 0, 0) // top-left red after flip
	var buf bytes.Buffer
	if err := im.WritePPM(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if !bytes.HasPrefix(data, []byte("P6\n4 2\n255\n")) {
		t.Fatalf("bad PPM header: %q", data[:12])
	}
	body := data[len("P6\n4 2\n255\n"):]
	if len(body) != 3*4*2 {
		t.Fatalf("PPM body length %d", len(body))
	}
	if body[0] != 255 || body[1] != 0 || body[2] != 0 {
		t.Fatalf("top-left pixel wrong: %v", body[:3])
	}
}

func TestClamp8(t *testing.T) {
	if clamp8(-1) != 0 || clamp8(2) != 255 || clamp8(0.5) != 127 {
		t.Fatal("clamp8 wrong")
	}
}

func TestImageAccessors(t *testing.T) {
	im := NewImage(3, 3)
	im.set(1, 2, 0.1, 0.2, 0.3)
	r, g, b := im.At(1, 2)
	if r != 0.1 || g != 0.2 || b != 0.3 {
		t.Fatal("set/At mismatch")
	}
}

func TestSupersamplingCountsAndSmooths(t *testing.T) {
	tris, view, lights := floorScene()
	tree := buildTree(tris)
	im1, s1 := Render(tree, view, lights, Options{Width: 24, Height: 18, Samples: 1})
	im3, s3 := Render(tree, view, lights, Options{Width: 24, Height: 18, Samples: 3})
	if s3.PrimaryRays != 9*s1.PrimaryRays {
		t.Fatalf("3x3 supersampling traced %d rays, want %d", s3.PrimaryRays, 9*s1.PrimaryRays)
	}
	// Averaging 9 rays of the same flat floor shouldn't change much.
	for i := range im1.Pix {
		if math.Abs(im1.Pix[i]-im3.Pix[i]) > 0.2 {
			t.Fatalf("supersampled pixel %d deviates: %v vs %v", i, im3.Pix[i], im1.Pix[i])
		}
	}
}

func TestRenderOptionDefaults(t *testing.T) {
	tris, view, lights := floorScene()
	tree := buildTree(tris)
	im, stats := Render(tree, view, lights, Options{})
	if im.W != 256 || im.H != 192 {
		t.Fatalf("default size %dx%d", im.W, im.H)
	}
	if stats.PrimaryRays != 256*192 {
		t.Fatalf("default sampling traced %d rays", stats.PrimaryRays)
	}
	// Custom ambient brightens unlit pixels.
	imA, _ := Render(tree, view, nil, Options{Width: 8, Height: 8, Ambient: 0.9})
	imB, _ := Render(tree, view, nil, Options{Width: 8, Height: 8, Ambient: 0.1})
	ra, _, _ := imA.At(4, 4)
	rb, _, _ := imB.At(4, 4)
	if ra <= rb {
		t.Fatalf("ambient had no effect: %v <= %v", ra, rb)
	}
}
