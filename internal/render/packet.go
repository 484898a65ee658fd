package render

import (
	"math"
	"sync"
	"sync/atomic"

	"kdtune/internal/faultinject"
	"kdtune/internal/kdtree"
	"kdtune/internal/parallel"
	"kdtune/internal/vecmath"
)

// Packet rendering: the image is decomposed into TileSize×TileSize tiles,
// each tile's pixels are walked in row-major order, and every PacketWidth
// consecutive primary rays are traced through the tree as one coherent
// packet (kdtree.IntersectPacket); shadow rays are likewise bundled per
// light across the packet's hit lanes. Per-pixel arithmetic — ray setup,
// shading terms, accumulation order — is exactly the scalar path's, and
// packet traversal is bitwise-identical to scalar traversal per lane, so
// the framebuffer is bitwise equal to a scalar render of the same options.
// Tiles are distributed across workers exactly like scalar rows, and every
// pixel belongs to exactly one tile, so output is also independent of the
// worker count.

// packetCtx is the per-goroutine scratch of the packet path, pooled so the
// steady state of a frame loop allocates nothing (precedent: the pooled SAH
// bin sets). All arrays are lane-indexed.
type packetCtx struct {
	ps     kdtree.PacketScratch
	rays   [kdtree.MaxPacketWidth]vecmath.Ray
	px, py [kdtree.MaxPacketWidth]int

	hits  [kdtree.MaxPacketWidth]kdtree.Hit
	ok    [kdtree.MaxPacketWidth]bool
	point [kdtree.MaxPacketWidth]vecmath.Vec3
	norm  [kdtree.MaxPacketWidth]vecmath.Vec3
	shade [kdtree.MaxPacketWidth]float64
	cosv  [kdtree.MaxPacketWidth]float64

	sRays [kdtree.MaxPacketWidth]vecmath.Ray
	sLane [kdtree.MaxPacketWidth]int
}

var packetCtxPool = sync.Pool{New: func() any { return new(packetCtx) }}

func renderPackets(im *Image, tree *kdtree.Tree, cam Camera, lights []vecmath.Vec3, opt Options, eps float64) RenderStats {
	tris := tree.Triangles()
	tile := opt.TileSize
	tilesX := (opt.Width + tile - 1) / tile
	tilesY := (opt.Height + tile - 1) / tile

	var primary, shadow, hits, packets, demotions, packetRays atomic.Int64

	// Parallelise across tiles: like the scalar path's rows, tiles are a
	// disjoint partition of the image, so worker count cannot change pixels.
	// A nil opt.Cancel never cancels; a linked one drains at the next tile.
	parallel.For(opt.Cancel, tilesX*tilesY, opt.Workers, func(lo, hi int) {
		ctx := packetCtxPool.Get().(*packetCtx)
		local := RenderStats{}
		for ti := lo; ti < hi; ti++ {
			if opt.Cancel.Canceled() {
				break
			}
			if faultinject.Active() {
				faultinject.Check(faultinject.SiteRenderTile, ti)
			}
			x0 := (ti % tilesX) * tile
			y0 := (ti / tilesX) * tile
			x1 := min(x0+tile, opt.Width)
			y1 := min(y0+tile, opt.Height)
			renderTile(im, tree, tris, cam, lights, opt, eps, ctx, &local, x0, y0, x1, y1)
		}
		primary.Add(int64(local.PrimaryRays))
		shadow.Add(int64(local.ShadowRays))
		hits.Add(int64(local.Hits))
		packets.Add(int64(local.Packets))
		demotions.Add(int64(local.Demotions))
		packetRays.Add(int64(local.PacketRays))
		packetCtxPool.Put(ctx)
	})
	return RenderStats{
		PrimaryRays: int(primary.Load()),
		ShadowRays:  int(shadow.Load()),
		Hits:        int(hits.Load()),
		Packets:     int(packets.Load()),
		Demotions:   int(demotions.Load()),
		PacketRays:  int(packetRays.Load()),
		Canceled:    opt.Cancel.Canceled(),
	}
}

// renderTile gathers the tile's pixels into packets of opt.PacketWidth
// consecutive rays (row-major within the tile; the last packet of a tile is
// ragged) and shades each packet.
func renderTile(im *Image, tree *kdtree.Tree, tris []vecmath.Triangle, cam Camera, lights []vecmath.Vec3, opt Options, eps float64, ctx *packetCtx, local *RenderStats, x0, y0, x1, y1 int) {
	w := opt.PacketWidth
	n := 0
	for y := y0; y < y1; y++ {
		// Same sub-pixel arithmetic as the scalar path with Samples == 1.
		t := (float64(y) + 0.5) / float64(opt.Height)
		rowBase := cam.RowBase(t)
		for x := x0; x < x1; x++ {
			s := (float64(x) + 0.5) / float64(opt.Width)
			ctx.rays[n] = cam.RayAt(rowBase, s)
			ctx.px[n], ctx.py[n] = x, y
			n++
			if n == w {
				shadePacket(im, tree, tris, lights, opt, eps, ctx, local, n)
				n = 0
			}
		}
	}
	if n > 0 {
		shadePacket(im, tree, tris, lights, opt, eps, ctx, local, n)
	}
}

// shadePacket traces one primary packet and shades its lanes, bundling the
// shadow rays of each light into packets over the lanes that need them. The
// per-pixel operations and their order replicate the scalar path exactly.
func shadePacket(im *Image, tree *kdtree.Tree, tris []vecmath.Triangle, lights []vecmath.Vec3, opt Options, eps float64, ctx *packetCtx, local *RenderStats, n int) {
	rays := ctx.rays[:n]
	local.PrimaryRays += n
	local.Packets++
	local.PacketRays += n
	local.Demotions += tree.IntersectPacket(&ctx.ps, rays, 1e-9, math.Inf(1))

	// Snapshot results: ctx.ps is reused by the shadow packets below.
	for l := 0; l < n; l++ {
		ctx.hits[l] = ctx.ps.Hits[l]
		ctx.ok[l] = ctx.ps.Ok[l]
		if !ctx.ok[l] {
			continue
		}
		local.Hits++
		p := rays[l].At(ctx.hits[l].T)
		nrm := tris[ctx.hits[l].Tri].UnitNormal()
		if nrm.Dot(rays[l].Dir) > 0 {
			nrm = nrm.Neg() // two-sided shading
		}
		ctx.point[l] = p
		ctx.norm[l] = nrm
		ctx.shade[l] = opt.Ambient
	}

	// Lambert shading with shadow packets to every light, accumulating
	// contributions per lane in light order (the scalar loop order).
	for _, lgt := range lights {
		m := 0
		for l := 0; l < n; l++ {
			if !ctx.ok[l] {
				continue
			}
			toLight := lgt.Sub(ctx.point[l])
			cos := ctx.norm[l].Dot(toLight.Normalize())
			if cos <= 0 {
				continue
			}
			local.ShadowRays++
			ctx.cosv[l] = cos
			ctx.sRays[m] = vecmath.Towards(ctx.point[l].Add(ctx.norm[l].Scale(eps)), lgt)
			ctx.sLane[m] = l
			m++
		}
		if m == 0 {
			continue
		}
		local.Packets++
		local.PacketRays += m
		local.Demotions += tree.OccludedPacket(&ctx.ps, ctx.sRays[:m], 1e-9, 1-1e-9)
		for k := 0; k < m; k++ {
			l := ctx.sLane[k]
			if !ctx.ps.Occ[k] {
				ctx.shade[l] += ctx.cosv[l] / float64(len(lights)) * 0.9
			}
		}
	}

	for l := 0; l < n; l++ {
		if !ctx.ok[l] {
			im.set(ctx.px[l], ctx.py[l], 0.05, 0.05, 0.08) // background
			continue
		}
		cr, cg, cb := triColor(ctx.hits[l].Tri)
		im.set(ctx.px[l], ctx.py[l], ctx.shade[l]*cr, ctx.shade[l]*cg, ctx.shade[l]*cb)
	}
}
