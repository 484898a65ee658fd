package render

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"kdtune/internal/kdtree"
	"kdtune/internal/scene"
)

// frameDigest is the hex SHA-256 of a frame's pixel bits followed by the
// render counters that depend on traversal: primary and shadow rays, hits
// and packet demotions.
func frameDigest(im *Image, st RenderStats) string {
	buf := make([]byte, 0, 8*(len(im.Pix)+4))
	for _, p := range im.Pix {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p))
	}
	for _, c := range []int{st.PrimaryRays, st.ShadowRays, st.Hits, st.Demotions} {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(c))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// pinnedFrameDigests are the frameDigests of frame 0 of three scenes at
// 64×48, rendered through each paper builder's base-config tree at packet
// widths 1, 4 and 16. Every pixel reaches the digest, so a leaf kernel or
// traversal change that moves a single hit's distance or triangle (both
// reach the shading; the barycentrics do not) shows up here. Keys are
// scene/algorithm/packet width; trees and frames are independent of the
// worker count, so one digest holds at workers 1 and 2.
var pinnedFrameDigests = map[string]string{
	"WoodDoll/node-level/p1":  "c008692ca673557336da4a66ac8761708f549cdedb74d8d884c8f8e4e9751b4f",
	"WoodDoll/node-level/p4":  "635ec6db7cad76949ad569bba891b27cc98e5aa7d84b6c8c0f016eedb57c629c",
	"WoodDoll/node-level/p16": "9fc4a686eed69ef75092e83835cdd75a61fd68589aebc1e668e48be964783bf6",
	"WoodDoll/nested/p1":      "c008692ca673557336da4a66ac8761708f549cdedb74d8d884c8f8e4e9751b4f",
	"WoodDoll/nested/p4":      "7d60048fcf68fe3df7fe9053b1c1c70f7e137bb53ccd856775aab941befe8d19",
	"WoodDoll/nested/p16":     "26c608e29d6145bc747f1776d6de66e87050b3e0e1b0a418f8489a8975f9be12",
	"WoodDoll/in-place/p1":    "c008692ca673557336da4a66ac8761708f549cdedb74d8d884c8f8e4e9751b4f",
	"WoodDoll/in-place/p4":    "7d60048fcf68fe3df7fe9053b1c1c70f7e137bb53ccd856775aab941befe8d19",
	"WoodDoll/in-place/p16":   "26c608e29d6145bc747f1776d6de66e87050b3e0e1b0a418f8489a8975f9be12",
	"WoodDoll/lazy/p1":        "c008692ca673557336da4a66ac8761708f549cdedb74d8d884c8f8e4e9751b4f",
	"WoodDoll/lazy/p4":        "fe98227ee5f6aa6f5d37d56837cd3bea569b09cf1df741457a10b3f0e6636950",
	"WoodDoll/lazy/p16":       "330001542c6e22ee85ba537486752f6557cbb318457fd3a81d5c97bb7f827137",
	"Toasters/node-level/p1":  "f6f22bbd010ad2c0f3fb3a1f6f285d1d73e3847363934b233cf55ffdf6b36faf",
	"Toasters/node-level/p4":  "453ae408c7c48bcf91ac00047f4a62ed7d15b5fc76b4b184e58e1a5fc138268f",
	"Toasters/node-level/p16": "9d3567e897910286dcd992c65f72c1ab1f15b25b7cd225b60d7680d662b6e52b",
	"Toasters/nested/p1":      "f6f22bbd010ad2c0f3fb3a1f6f285d1d73e3847363934b233cf55ffdf6b36faf",
	"Toasters/nested/p4":      "3ccd7e0ed572270191d79092a89b5f358f6cd2109557234c1304e66f1ed2fd1c",
	"Toasters/nested/p16":     "d10aaffe32720712deefcaf1d2d135b64bf29d455060c3712d964e8985c637e8",
	"Toasters/in-place/p1":    "f6f22bbd010ad2c0f3fb3a1f6f285d1d73e3847363934b233cf55ffdf6b36faf",
	"Toasters/in-place/p4":    "3ccd7e0ed572270191d79092a89b5f358f6cd2109557234c1304e66f1ed2fd1c",
	"Toasters/in-place/p16":   "d10aaffe32720712deefcaf1d2d135b64bf29d455060c3712d964e8985c637e8",
	"Toasters/lazy/p1":        "f6f22bbd010ad2c0f3fb3a1f6f285d1d73e3847363934b233cf55ffdf6b36faf",
	"Toasters/lazy/p4":        "289462e8f9eb71856b992aec86d2c0c25a35ca0c8377efbef09a2b401342c1dc",
	"Toasters/lazy/p16":       "0637d47545151fcd4b19db57e727b1d7a3f4480c77edbc6e70b2455038f60c33",
	"Sibenik/node-level/p1":   "67eb017c8174ebbbc14f3f199efa0731bca8623aa510c68c071450f15def69e4",
	"Sibenik/node-level/p4":   "d038eea1bcf10c028084402488801dfd573abac9f7c342dae2ff5b41eb3fab7d",
	"Sibenik/node-level/p16":  "db11b32d175742059381c9ae75ca3b5928a498821c25b554a027c66d957996b0",
	"Sibenik/nested/p1":       "67eb017c8174ebbbc14f3f199efa0731bca8623aa510c68c071450f15def69e4",
	"Sibenik/nested/p4":       "93ca5ed0cd52c18ef02e581f3a31dc67de1c203a8e854cbad79c96c82bd1fac1",
	"Sibenik/nested/p16":      "9b2538df96814dc6d1c024409cf2108dd690f2aa5bfdd04ca9fc0aaacfdd1d56",
	"Sibenik/in-place/p1":     "67eb017c8174ebbbc14f3f199efa0731bca8623aa510c68c071450f15def69e4",
	"Sibenik/in-place/p4":     "93ca5ed0cd52c18ef02e581f3a31dc67de1c203a8e854cbad79c96c82bd1fac1",
	"Sibenik/in-place/p16":    "9b2538df96814dc6d1c024409cf2108dd690f2aa5bfdd04ca9fc0aaacfdd1d56",
	"Sibenik/lazy/p1":         "67eb017c8174ebbbc14f3f199efa0731bca8623aa510c68c071450f15def69e4",
	"Sibenik/lazy/p4":         "2149c5810e39b494fa1b13472df87d635d8f5c167171fbb3ee72b9bb5973134a",
	"Sibenik/lazy/p16":        "d8bc9f7720aab54f4d9ba7589d03c6e4fc801a0d86c5dcf88e757921ab84a9a1",
}

// TestFrameDigestsPinned renders each pinned cell at workers 1 and 2 and
// compares both frames against the cell's one recorded digest. It is the
// frame twin of kdtree's TestTreeDigestsPinned: the oracle's brute-force
// reference runs the same Möller–Trumbore routine as the leaf loops, so it
// cannot see drift in that arithmetic, and these digests can.
func TestFrameDigestsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("scene-scale builds are slow under -short")
	}
	for _, sc := range []*scene.Scene{scene.WoodDoll(), scene.Toasters(), scene.Sibenik()} {
		tris := sc.Triangles(0)
		view := sc.ViewAt(0)
		for _, a := range kdtree.Algorithms {
			for _, w := range []int{1, 2} {
				cfg := kdtree.BaseConfig(a)
				cfg.Workers = w
				tree := kdtree.Build(tris, cfg)
				for _, pw := range []int{1, 4, 16} {
					key := fmt.Sprintf("%s/%v/p%d", sc.Name, a, pw)
					im, st := Render(tree, view, sc.Lights, Options{Width: 64, Height: 48, Workers: w, PacketWidth: pw})
					if got, want := frameDigest(im, st), pinnedFrameDigests[key]; got != want {
						t.Errorf("%s workers=%d: frame digest %s, pinned %s", key, w, got, want)
					}
				}
			}
		}
	}
}
