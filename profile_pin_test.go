package fpvm_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"fpvm"
	"fpvm/internal/obj"
	"fpvm/internal/workloads"
)

// pinnedProfileDigest is the digest TestProfileSitesPinned computes. It
// was recorded with the profiler's float-marked blocks kept in a map of
// 8-byte blocks and the interpreter dispatching through nested opcode
// switches, so a change to which sites the profiler finds or to any of
// its Stats shows up as a mismatch.
const pinnedProfileDigest = "b549f72411844a79103120d703bcee855898150e53adbb0cfa53ba9e0cad4f13"

// TestProfileSitesPinned profiles the six paper images and the five
// micro images and hashes each one's sites and every Stats field.
func TestProfileSitesPinned(t *testing.T) {
	var imgs []*obj.Image
	for _, name := range workloads.All() {
		img, err := workloads.Build(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		imgs = append(imgs, img)
	}
	for _, name := range workloads.MicroAll() {
		img, err := workloads.BuildMicro(name)
		if err != nil {
			t.Fatal(err)
		}
		imgs = append(imgs, img)
	}
	h := sha256.New()
	put := func(vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	for _, img := range imgs {
		sites, st, err := fpvm.ProfileSites(img)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d sites, %+v", img.Name, len(sites), st)
		h.Write([]byte(img.Name))
		put(uint64(len(sites)))
		put(sites...)
		put(st.FPStores, st.IntStores, st.IntLoads, uint64(st.MarkedBlocks), uint64(st.Sites))
	}
	got := hex.EncodeToString(h.Sum(nil))
	if got != pinnedProfileDigest {
		t.Errorf("profiler output moved: digest %s, pinned %s", got, pinnedProfileDigest)
	}
}
