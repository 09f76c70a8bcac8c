package compact

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"bgla/internal/ident"
	"bgla/internal/lattice"
	"bgla/internal/msg"
	"bgla/internal/sig"
)

func testSet(n int) lattice.Set {
	var items []lattice.Item
	for i := 0; i < n; i++ {
		items = append(items, lattice.Item{Author: 1, Body: fmt.Sprintf("cmd-%04d", i)})
	}
	return lattice.FromItems(items...)
}

func buildCert(t *testing.T, kc sig.Keychain, signers []ident.ProcessID, epoch, round int, v lattice.Set) msg.CkptCert {
	t.Helper()
	image := ImageHash(v)
	cert := msg.CkptCert{Epoch: epoch, Round: round, Len: v.Len(), Dig: v.Digest(), Image: image}
	for _, id := range signers {
		cert.Sigs = append(cert.Sigs, Sign(kc.SignerFor(id), epoch, round, v.Len(), v.Digest(), image))
	}
	return cert
}

func TestVerifyCert(t *testing.T) {
	n, f := 4, 1
	kc := sig.NewSim(n, 1)
	v := testSet(100)
	cert := buildCert(t, kc, ident.Range(3), 1, 5, v)
	if !VerifyCert(kc, n, f, cert) {
		t.Fatal("genuine 2f+1 cert must verify")
	}

	// Too few signatures.
	short := cert
	short.Sigs = short.Sigs[:2]
	if VerifyCert(kc, n, f, short) {
		t.Fatal("2 signatures must not satisfy 2f+1=3")
	}

	// Duplicate signer padding must not count twice.
	dup := cert
	dup.Sigs = []msg.CkptSig{cert.Sigs[0], cert.Sigs[0], cert.Sigs[1]}
	if VerifyCert(kc, n, f, dup) {
		t.Fatal("duplicate signers must not reach the quorum")
	}

	// Forged signature (wrong key) must not count.
	forged := cert
	bad := cert.Sigs[2]
	bad.Sig = kc.SignerFor(3).Sign(Preimage(cert.Round, cert.Len, cert.Dig, cert.Image))
	forged.Sigs = []msg.CkptSig{cert.Sigs[0], cert.Sigs[1], bad}
	if VerifyCert(kc, n, f, forged) {
		t.Fatal("signature by the wrong key must not verify for the claimed signer")
	}

	// Tampered digest invalidates every signature.
	tampered := cert
	tampered.Dig = testSet(99).Digest()
	if VerifyCert(kc, n, f, tampered) {
		t.Fatal("tampered digest must break the preimage binding")
	}

	// Tampered image hash likewise.
	tamperedImg := cert
	tamperedImg.Image = ImageHash(testSet(99))
	if VerifyCert(kc, n, f, tamperedImg) {
		t.Fatal("tampered image must break the preimage binding")
	}

	// Out-of-range signer identities are ignored.
	alien := cert
	as := cert.Sigs[2]
	as.Signer = 99
	alien.Sigs = []msg.CkptSig{cert.Sigs[0], cert.Sigs[1], as}
	if VerifyCert(kc, n, f, alien) {
		t.Fatal("out-of-range signer must not count")
	}

	// Forged-signature isolation: signatures verify as one batch, and
	// a garbage entry padded onto a genuine quorum must fail alone —
	// the valid 2f+1 around it still carry the certificate.
	padded := cert
	junk := cert.Sigs[0]
	junk.Signer = 3
	junk.Sig = []byte("batch-poison-attempt")
	padded.Sigs = append(append([]msg.CkptSig(nil), cert.Sigs...), junk)
	if !VerifyCert(kc, n, f, padded) {
		t.Fatal("forged signature poisoned the valid batch around it")
	}
}

func newTracker(id ident.ProcessID, kc sig.Keychain, every int) *Tracker {
	return NewTracker(Config{
		Self: id, N: 4, F: 1,
		Keychain: kc, Signer: kc.SignerFor(id),
		Every: every,
	})
}

func TestTrackerCertFlowAndStateTransfer(t *testing.T) {
	kc := sig.NewSim(4, 7)
	v := testSet(64)
	round := 3

	// Initiator p0 proposes its decided value.
	t0 := newTracker(0, kc, 32)
	if !t0.ShouldInitiate(v) {
		t.Fatal("64-item window must cross Every=32")
	}
	prop, own, ok := t0.Initiate(v, round)
	if !ok || prop.Dig != v.Digest() || own.Signer != 0 {
		t.Fatalf("Initiate failed: %+v", prop)
	}
	if _, _, again := t0.Initiate(v, round); again {
		t.Fatal("duplicate Initiate must be suppressed")
	}

	// Signers p1, p2 countersign once their tally shows the quorum.
	lookupHit := func(dig lattice.Digest, r int) (lattice.Set, bool) {
		if dig == v.Digest() && r == round {
			return v, true
		}
		return lattice.Set{}, false
	}
	lookupMiss := func(lattice.Digest, int) (lattice.Set, bool) { return lattice.Set{}, false }

	var sigs []msg.CkptSig
	for _, id := range []ident.ProcessID{1, 2} {
		tr := newTracker(id, kc, 32)
		p := prop
		p.From = 0
		tr.OnProp(p)
		if out := tr.RetryPending(lookupMiss, 100); len(out) != 0 {
			t.Fatal("must not sign without quorum evidence")
		}
		if out := tr.RetryPending(lookupHit, round-1); len(out) != 0 {
			t.Fatal("must not sign a round beyond Safe_r")
		}
		out := tr.RetryPending(lookupHit, round)
		if len(out) != 1 || out[0].To != 0 {
			t.Fatalf("expected one countersignature to p0, got %v", out)
		}
		if again := tr.RetryPending(lookupHit, round); len(again) != 0 {
			t.Fatal("re-signing the same digest must be suppressed")
		}
		sigs = append(sigs, out[0].Sig)
	}

	// The initiator assembles the certificate at 2f+1.
	if _, done := t0.OnSig(1, sigs[0]); done {
		t.Fatal("2 signatures must not assemble a cert")
	}
	cert, done := t0.OnSig(2, sigs[1])
	if !done || len(cert.Sigs) != 3 {
		t.Fatalf("cert not assembled: done=%v sigs=%d", done, len(cert.Sigs))
	}
	if !VerifyCert(kc, 4, 1, cert) {
		t.Fatal("assembled cert must verify")
	}

	// Installing at the initiator.
	inst, needState := t0.OnCert(cert, func(dig lattice.Digest) (lattice.Set, bool) { return v, dig == v.Digest() })
	if inst == nil || needState {
		t.Fatal("initiator must resolve and install locally")
	}
	t0.ApplyInstall(inst)
	if t0.BaseLen() != 64 || t0.Epoch() != 1 {
		t.Fatalf("install state wrong: baseLen=%d epoch=%d", t0.BaseLen(), t0.Epoch())
	}
	if _, again := t0.OnCert(cert, func(lattice.Digest) (lattice.Set, bool) { return v, true }); again {
		t.Fatal("stale (already covered) cert must be ignored")
	}

	// A restarted empty replica resolves nothing -> state transfer.
	t3 := newTracker(3, kc, 32)
	inst3, need := t3.OnCert(cert, func(lattice.Digest) (lattice.Set, bool) { return lattice.Set{}, false })
	if inst3 != nil || !need {
		t.Fatal("unresolvable cert must request state transfer")
	}
	rep, ok := t0.OnStateReq(msg.StateReq{Dig: cert.Dig})
	if !ok {
		t.Fatal("cert holder must serve state transfer")
	}
	got := t3.OnStateRep(rep)
	if got == nil {
		t.Fatal("valid state transfer must install")
	}
	t3.ApplyInstall(got)
	if t3.BaseLen() != 64 {
		t.Fatal("transferred base wrong")
	}
	if t3.Stats().TransfersReceived != 1 || t0.Stats().TransfersServed != 1 {
		t.Fatal("transfer counters wrong")
	}

	// Tampered transfer value must be rejected.
	evil := rep
	evil.Value = testSet(63)
	t4 := newTracker(3, kc, 32)
	if t4.OnStateRep(evil) != nil {
		t.Fatal("state transfer with mismatched value must be rejected")
	}
}

// TestForgedCertCannotSmuggle is the DESIGN.md §6 adversarial case: a
// Byzantine replica fabricates a certificate over a value containing
// an item no correct replica ever saw committed. Without f+1 correct
// countersignatures the certificate cannot verify, so the undecided
// item never enters anyone's Decided_set via compaction.
func TestForgedCertCannotSmuggle(t *testing.T) {
	kc := sig.NewSim(4, 9)
	smuggled := testSet(50).Union(lattice.FromStrings(3, "undecided-evil-cmd"))
	// The Byzantine replica p3 controls only its own key.
	image := ImageHash(smuggled)
	cert := msg.CkptCert{Epoch: 1, Round: 2, Len: smuggled.Len(), Dig: smuggled.Digest(), Image: image}
	own := Sign(kc.SignerFor(3), 1, 2, smuggled.Len(), smuggled.Digest(), image)
	// Pad with replayed signatures from a legitimate cert over a
	// different value — the preimage binds them to that value, so they
	// must not count here.
	legit := testSet(50)
	for _, id := range []ident.ProcessID{0, 1} {
		s := Sign(kc.SignerFor(id), 1, 2, legit.Len(), legit.Digest(), ImageHash(legit))
		s.Dig = smuggled.Digest() // claim they cover the smuggled value
		s.Len = smuggled.Len()
		s.Image = image
		cert.Sigs = append(cert.Sigs, s)
	}
	cert.Sigs = append(cert.Sigs, own)
	if VerifyCert(kc, 4, 1, cert) {
		t.Fatal("forged cert with replayed signatures must not verify")
	}
	tr := newTracker(0, kc, 32)
	if inst, need := tr.OnCert(cert, func(lattice.Digest) (lattice.Set, bool) { return smuggled, true }); inst != nil || need {
		t.Fatal("tracker must reject the forged cert outright")
	}
}

func TestScaleEvery(t *testing.T) {
	if ScaleEvery(1024, 1) != 1024 || ScaleEvery(0, 8) != 0 {
		t.Fatal("identity cases wrong")
	}
	if ScaleEvery(1024, 4) != 256 {
		t.Fatal("division wrong")
	}
	if ScaleEvery(64, 8) != 16 {
		t.Fatal("clamp wrong")
	}
	if ScaleBytes(1<<20, 4) != 1<<18 {
		t.Fatal("byte division wrong")
	}
	if ScaleBytes(2048, 8) != 1024 {
		t.Fatal("byte clamp wrong")
	}
}

// TestBytesTriggerBeforeFirstCheckpoint is the regression test for the
// Bytes-only configuration: the trigger must fire on a flat (not yet
// anchored) decided set, i.e. before any checkpoint exists.
func TestBytesTriggerBeforeFirstCheckpoint(t *testing.T) {
	kc := sig.NewSim(4, 3)
	tr := NewTracker(Config{
		Self: 0, N: 4, F: 1,
		Keychain: kc, Signer: kc.SignerFor(0),
		Bytes: 64,
	})
	if tr.ShouldInitiate(testSet(4)) { // 4 x 8-byte bodies = 32 bytes
		t.Fatal("32 bytes must not cross a 64-byte threshold")
	}
	if !tr.ShouldInitiate(testSet(10)) { // 80 bytes
		t.Fatal("bytes-only trigger dead on a flat decided set")
	}
}

// TestCountersignAcrossRoundSkew: replicas may observe the same
// committed prefix at different rounds (each initiates from its own
// decide). Having signed (dig, r1) must not swallow a proposal for
// (dig, r2) — both statements are true and certificate assembly at
// either initiator needs the signature.
func TestCountersignAcrossRoundSkew(t *testing.T) {
	kc := sig.NewSim(4, 5)
	v := testSet(64)
	tr := newTracker(2, kc, 32)
	lookupAt := func(round int) Lookup {
		return func(dig lattice.Digest, r int) (lattice.Set, bool) {
			return v, dig == v.Digest() && r == round
		}
	}
	p5 := msg.CkptProp{Epoch: 1, Round: 5, Len: v.Len(), Dig: v.Digest(), From: 0}
	tr.OnProp(p5)
	if out := tr.RetryPending(lookupAt(5), 10); len(out) != 1 || out[0].To != 0 {
		t.Fatalf("round-5 proposal not signed: %v", out)
	}
	p6 := msg.CkptProp{Epoch: 1, Round: 6, Len: v.Len(), Dig: v.Digest(), From: 1}
	tr.OnProp(p6)
	out := tr.RetryPending(lookupAt(6), 10)
	if len(out) != 1 || out[0].To != 1 || out[0].Sig.Round != 6 {
		t.Fatalf("same digest at a skewed round must still be countersigned: %v", out)
	}
}

// goldenSet is a fixed set whose image hash is pinned below: authors of
// both signs, an empty body, multi-byte UTF-8 and a body longer than
// ImageHash's chunk buffer.
func goldenSet() lattice.Set {
	return lattice.FromItems(
		lattice.Item{Author: -1, Body: ""},
		lattice.Item{Author: 0, Body: "a"},
		lattice.Item{Author: 3, Body: "put|k|v"},
		lattice.Item{Author: 7, Body: strings.Repeat("é", 100)},
		lattice.Item{Author: 1000, Body: strings.Repeat("x", 5000)},
	)
}

// TestImageHashGolden pins the image bytes: they are signed into every
// checkpoint certificate and persisted in the WAL, so the hashing code
// may change only if it reproduces them exactly, flat or anchored.
func TestImageHashGolden(t *testing.T) {
	const want = "b1c4a16890c58b076e1cdc1d083bec94a7e13f839c13e5740d104b54009c2c46"
	v := goldenSet()
	if got := hex.EncodeToString(ImageHash(v)); got != want {
		t.Fatalf("golden image = %s, want %s", got, want)
	}
	anchored := v.TryRebase(lattice.NewBase(lattice.FromItems(v.Items()[:2]...)))
	if got := hex.EncodeToString(ImageHash(anchored)); got != want {
		t.Fatalf("anchored golden image = %s, want %s", got, want)
	}
	// Bodies that straddle chunk boundaries in every phase.
	var items []lattice.Item
	for i := 0; i < 300; i++ {
		items = append(items, lattice.Item{Author: ident.ProcessID(i % 7), Body: strings.Repeat("b", i*13%977)})
	}
	big := lattice.FromItems(items...)
	ref := sha256.New()
	ref.Write([]byte(imageTag))
	var n [8]byte
	big.Each(func(it lattice.Item) bool {
		binary.LittleEndian.PutUint64(n[:], uint64(int64(it.Author)))
		ref.Write(n[:])
		binary.LittleEndian.PutUint64(n[:], uint64(len(it.Body)))
		ref.Write(n[:])
		ref.Write([]byte(it.Body))
		return true
	})
	if !bytes.Equal(ImageHash(big), ref.Sum(nil)) {
		t.Fatal("chunked image differs from the item-by-item reference")
	}
}

// TestImageHashAllocsConstant: the allocations of one ImageHash do not
// grow with the number of items.
func TestImageHashAllocsConstant(t *testing.T) {
	small, large := testSet(16), testSet(4096)
	a := testing.AllocsPerRun(10, func() { ImageHash(small) })
	b := testing.AllocsPerRun(10, func() { ImageHash(large) })
	if a != b || b > 3 {
		t.Fatalf("ImageHash allocs: %.0f at 16 items, %.0f at 4096, want equal and ≤ 3", a, b)
	}
}

// TestImageMemoNeedsSameItems: the tracker reuses an image only for a
// value lattice.SameItems proves identical to the one it hashed; an
// equal-digest value on another base object is hashed again (to the
// same bytes), and an install forgets every image.
func TestImageMemoNeedsSameItems(t *testing.T) {
	tr := newTracker(0, sig.NewSim(4, 3), 32)
	v := testSet(64)
	b1, b2 := lattice.NewBase(testSet(32)), lattice.NewBase(testSet(32))
	onB1, onB2 := v.TryRebase(b1), v.TryRebase(b2)
	first := tr.imageOf(onB1)
	if again := tr.imageOf(onB1); &again[0] != &first[0] {
		t.Fatal("the same value must reuse its image")
	}
	other := tr.imageOf(onB2)
	if &other[0] == &first[0] {
		t.Fatal("an equal digest on another base object must not reuse the image")
	}
	if !bytes.Equal(other, first) || !bytes.Equal(tr.imageOf(v), first) {
		t.Fatal("images of one logical value differ")
	}
	tr.ApplyInstall(&Install{Cert: msg.CkptCert{Len: 32}, Value: testSet(32), Base: b1})
	if again := tr.imageOf(onB1); &again[0] == &first[0] {
		t.Fatal("an install must clear the image memo")
	}
}

// TestInstallRequiresCurrentBase: a certified value must contain the
// current base. On the tracker's own base object that holds by
// construction; any other shape is checked item by item and a value
// missing base items is rejected despite a valid certificate.
func TestInstallRequiresCurrentBase(t *testing.T) {
	kc := sig.NewSim(4, 5)
	signers := []ident.ProcessID{0, 1, 2}
	tr := newTracker(0, kc, 32)
	prefix := testSet(32)
	inst := tr.verifyValue(buildCert(t, kc, signers, 1, 1, prefix), prefix)
	if inst == nil {
		t.Fatal("first install rejected")
	}
	tr.ApplyInstall(inst)

	next := testSet(48)
	for name, v := range map[string]lattice.Set{
		"own base":   next.TryRebase(tr.Base()),
		"other base": next.TryRebase(lattice.NewBase(prefix)),
		"flat":       next,
	} {
		if tr.verifyValue(buildCert(t, kc, signers, 2, 2, v), v) == nil {
			t.Errorf("%s: a value containing the base was rejected", name)
		}
	}
	var items []lattice.Item
	for i := 0; i < 48; i++ {
		items = append(items, lattice.Item{Author: 2, Body: fmt.Sprintf("other-%04d", i)})
	}
	disjoint := lattice.FromItems(items...)
	if tr.verifyValue(buildCert(t, kc, signers, 2, 2, disjoint), disjoint) != nil {
		t.Fatal("a certified value missing the current base must be rejected")
	}
}
