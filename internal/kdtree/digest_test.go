package kdtree

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"kdtune/internal/scene"
	"kdtune/internal/vecmath"
)

// planarSoup is a triangle soup dominated by axis-aligned triangles on a
// shared grid: every x, y and z plane carries planar events, and many
// positions coincide across primitives and axes, which is where sweep
// tie-breaks decide the split.
func planarSoup() []vecmath.Triangle {
	var tris []vecmath.Triangle
	for i := 0; i < 12; i++ {
		for j := 0; j < 12; j++ {
			x, y, z := float64(i), float64(j), float64((i*7+j*3)%5)
			tris = append(tris,
				vecmath.Tri(vecmath.V(x, y, z), vecmath.V(x+1, y, z), vecmath.V(x, y+1, z)),
				vecmath.Tri(vecmath.V(z, x, y), vecmath.V(z, x+1, y), vecmath.V(z, x, y+1)),
				vecmath.Tri(vecmath.V(y, z, x), vecmath.V(y+1, z, x), vecmath.V(y, z, x+1)))
		}
	}
	return tris
}

// duplicateSoup repeats a few triangles many times over, interleaved with
// exact copies shifted onto each other's corners, so identical boxes and
// unsplittable clusters dominate.
func duplicateSoup() []vecmath.Triangle {
	var tris []vecmath.Triangle
	for k := 0; k < 40; k++ {
		for c := 0; c < 6; c++ {
			o := vecmath.V(float64(c%3), float64(c/3), float64(c%2))
			tris = append(tris, vecmath.Tri(o, o.Add(vecmath.V(1, 0, 0)), o.Add(vecmath.V(0, 1, 1))))
		}
		s := float64(k % 8)
		tris = append(tris, vecmath.Tri(vecmath.V(s, 0, 0), vecmath.V(s+0.5, 2, 0), vecmath.V(s, 0, 3)))
	}
	return tris
}

// treeDigest is the hex SHA-256 of t's serialized bytes (lazy subtrees
// expanded).
func treeDigest(t *testing.T, tree *Tree) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tree.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// pinnedTreeDigests are the Tree.Serialize digests of the four paper
// builders, recorded from the per-node event sweep (one fresh sort at every
// node). Split choice, tie-breaks, item classification and leaf order all
// reach the serialized bytes, so a sweep engine that deviates from that
// reference anywhere shows up here. Keys are input/config/algorithm; every
// builder lays its tree out in pre-order, so one digest holds at every
// worker count.
var pinnedTreeDigests = map[string]string{
	"WoodDoll/base/node-level":                     "c5adceb1dea34dc09e5f022c56d0446078b4b931ad47f130081a50387455a403",
	"WoodDoll/B=64,G=512,GB=1024,SB=2/node-level":  "c5adceb1dea34dc09e5f022c56d0446078b4b931ad47f130081a50387455a403",
	"WoodDoll/clipping/node-level":                 "633e594aaadd48ace1aee0007bbbdb963cbc8dd5b889b5c6cb41c394865b76c1",
	"WoodDoll/base/nested":                         "5f25647b8626ffd0477eaecf2286268c554e84a5327800aaefaedab94ad12a96",
	"WoodDoll/B=64,G=512,GB=1024,SB=2/nested":      "3fa08a652def96ce34fd0a817db4196d49dd34ce1456be0346d040ba24858cea",
	"WoodDoll/clipping/nested":                     "62e905cf81828644c24146b8d256acb755313467572d566a442918f3afe9dc34",
	"WoodDoll/base/in-place":                       "1866a386c48e69de6319a72b279ca52eb30eaa3cc19356b6aa52f80be4c23d43",
	"WoodDoll/B=64,G=512,GB=1024,SB=2/in-place":    "9ef8da5765c3e37d755763677fe4423770eebd69c64d3aa038eb9460f35ed15c",
	"WoodDoll/clipping/in-place":                   "b5ad9b6d07a00793a1a461f08e02c999b88d5daeed1a2c5036f358f9adc52379",
	"WoodDoll/base/lazy":                           "09613c0aa6b9d1f532c19a710b6075981de368aa5a59186647a8b2184dcd1f3c",
	"WoodDoll/B=64,G=512,GB=1024,SB=2/lazy":        "4da0071817ff0fb979271009761990770be37b5a5cda14edfc8ac30d4fc3b299",
	"WoodDoll/clipping/lazy":                       "54db05a4f6cea8e4f81fd212e1b9b0a9e0414963c9531b37be662c39b6371195",
	"Toasters/base/node-level":                     "d57aa04fb986f35bf6cb665b4b43f076e82303ad4c6da0288f66486c778891e8",
	"Toasters/B=64,G=512,GB=1024,SB=2/node-level":  "d57aa04fb986f35bf6cb665b4b43f076e82303ad4c6da0288f66486c778891e8",
	"Toasters/base/nested":                         "95e4fafec98e95cf0ce8a3f29867fe8d25b34d4559ba9bc1b699d72e618445d8",
	"Toasters/B=64,G=512,GB=1024,SB=2/nested":      "6a319b8c57ef9dfab2b3bd0608f9165af271dffec527d5c0b58a4b6563f72911",
	"Toasters/base/in-place":                       "fb2fa55c1995246d4d99b1e45ece8f833f896d3215978e2596a05f5c08119f35",
	"Toasters/B=64,G=512,GB=1024,SB=2/in-place":    "d19240314f98b2dab2d7cd4e2f1ea3c73634cd1ab6944352f315a0465e84f029",
	"Toasters/base/lazy":                           "4b5b4e993bf5d8bc42e25b31ea823b7a2bdc9e531e0c395f5afeb60d861cfc4f",
	"Toasters/B=64,G=512,GB=1024,SB=2/lazy":        "d3838f80cf85c662f3252ab4166fed5ac72d25df739355fe744e30326e650877",
	"Bunny/base/node-level":                        "b6cddc4cec6439fc1c5c781774f2930df7ede68d0bba97316e0088d1019a1eaf",
	"Bunny/base/nested":                            "ee252ccc42be3e666d268ba7ea8b80b0e99d5d19d5d013649098c1987259d346",
	"Bunny/base/in-place":                          "3ed76e70a4ee87469e51b3b878869da1090ce10bcf7f45cb29496be18fe88053",
	"Bunny/base/lazy":                              "6341ca366e1e0d5e33c774299cab854831721899086165911b5e0671db8ffd24",
	"planar/base/node-level":                       "cceb43525e088c50130b8ffbb7c41a4cbb7e0acd637dab8904808fec78cd9997",
	"planar/B=64,G=512,GB=1024,SB=2/node-level":    "cceb43525e088c50130b8ffbb7c41a4cbb7e0acd637dab8904808fec78cd9997",
	"planar/base/nested":                           "341cfc34762e6dde00ef1f9ce01707679e685db9a4d56a6063a3a0fbb9dda266",
	"planar/B=64,G=512,GB=1024,SB=2/nested":        "341cfc34762e6dde00ef1f9ce01707679e685db9a4d56a6063a3a0fbb9dda266",
	"planar/base/in-place":                         "00581db0732e6960876b7576ef634c19faf2f757b5c8fab03f46c1d4ebea7503",
	"planar/B=64,G=512,GB=1024,SB=2/in-place":      "00581db0732e6960876b7576ef634c19faf2f757b5c8fab03f46c1d4ebea7503",
	"planar/base/lazy":                             "ded1bbffaf1929490c4254ac4251c6e2ca12dbc89dbfe82c0c7d96963889003f",
	"planar/B=64,G=512,GB=1024,SB=2/lazy":          "ded1bbffaf1929490c4254ac4251c6e2ca12dbc89dbfe82c0c7d96963889003f",
	"duplicate/base/node-level":                    "e806bbc38b7089236a90dc0e85bf2c33affb575afe5ea572112b33e23e12ca25",
	"duplicate/B=64,G=512,GB=1024,SB=2/node-level": "e806bbc38b7089236a90dc0e85bf2c33affb575afe5ea572112b33e23e12ca25",
	"duplicate/base/nested":                        "29e4bc49d2aab2bd8400331ad1e77fd3aeba2a847894068f0d1d12de994020b0",
	"duplicate/B=64,G=512,GB=1024,SB=2/nested":     "29e4bc49d2aab2bd8400331ad1e77fd3aeba2a847894068f0d1d12de994020b0",
	"duplicate/base/in-place":                      "3088821f744c1f25b62ec8b499fb1a7fe5bb026960702dd099a930ad0ca2872b",
	"duplicate/B=64,G=512,GB=1024,SB=2/in-place":   "3088821f744c1f25b62ec8b499fb1a7fe5bb026960702dd099a930ad0ca2872b",
	"duplicate/base/lazy":                          "b30abfd29b4570317a88d089c15d48fff6eaa7c7143f6ec79caa098e3f38cd7b",
	"duplicate/B=64,G=512,GB=1024,SB=2/lazy":       "b30abfd29b4570317a88d089c15d48fff6eaa7c7143f6ec79caa098e3f38cd7b",
}

// TestTreeDigestsPinned builds each pinned cell at workers 1 and 2 and
// compares both serialized trees against the cell's one recorded digest.
func TestTreeDigestsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("scene-scale builds are slow under -short")
	}
	inputs := []struct {
		name string
		tris []vecmath.Triangle
	}{
		{"WoodDoll", scene.WoodDoll().Triangles(0)},
		{"Toasters", scene.Toasters().Triangles(0)},
		{"Bunny", scene.Bunny().Triangles(0)},
		{"planar", planarSoup()},
		{"duplicate", duplicateSoup()},
	}
	ci := func(c Config) Config {
		c.Bins, c.ScatterGrain, c.BinGrain, c.SplitBias = 64, 512, 1024, 2
		return c
	}
	clip := func(c Config) Config {
		c.UseClipping = true
		return c
	}
	type cell struct {
		key  string
		tris []vecmath.Triangle
		cfg  Config
	}
	var cells []cell
	for _, in := range inputs {
		for _, a := range Algorithms {
			base := BaseConfig(a)
			cells = append(cells, cell{fmt.Sprintf("%s/base/%v", in.name, a), in.tris, base})
			// Bunny (70k triangles) pins base only, to keep the test
			// within a few seconds.
			if in.name != "Bunny" {
				cells = append(cells, cell{fmt.Sprintf("%s/B=64,G=512,GB=1024,SB=2/%v", in.name, a), in.tris, ci(base)})
			}
			if in.name == "WoodDoll" {
				cells = append(cells, cell{fmt.Sprintf("%s/clipping/%v", in.name, a), in.tris, clip(base)})
			}
		}
	}
	b := NewBuilder()
	for _, c := range cells {
		for _, w := range []int{1, 2} {
			cfg := c.cfg
			cfg.Workers = w
			got := treeDigest(t, b.Build(c.tris, cfg))
			if want := pinnedTreeDigests[c.key]; got != want {
				t.Errorf("%s workers=%d: tree digest %s, pinned %s", c.key, w, got, want)
			}
		}
	}
}
