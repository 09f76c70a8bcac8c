package msg

import (
	"encoding/hex"
	"fmt"
	"testing"

	"bgla/internal/lattice"
)

// goldenDeltaFrames is a fresh encoder's first two frames for a growing
// accepted set: a full frame, then a delta frame against it.
func goldenDeltaFrames() [][]byte {
	enc := NewDeltaEncoder()
	s := lattice.FromStrings(1, "cmd", "other")
	var frames [][]byte
	for i := 0; i < 2; i++ {
		s = s.Union(lattice.FromStrings(5, fmt.Sprintf("g%d", i)))
		frame, err := enc.Encode(Ack{Accepted: s, TS: uint32(i)})
		if err != nil {
			panic(err)
		}
		frames = append(frames, frame)
	}
	return frames
}

// TestFrameGolden pins the binary codec's bytes: frames cross sockets
// between builds and sets and certificates sit inside WAL records on
// disk, so any change to the encoder must reproduce these exactly (or
// bump the WAL record version).
func TestFrameGolden(t *testing.T) {
	msgs := sampleMsgs()
	if len(msgs) != len(goldenFrames) {
		t.Fatalf("%d sample messages, %d golden frames", len(msgs), len(goldenFrames))
	}
	for i, m := range msgs {
		frame, err := EncodeBinary(m)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		if got := hex.EncodeToString(frame); got != goldenFrames[i] {
			t.Errorf("%T frame = %s, want %s", m, got, goldenFrames[i])
		}
	}
	for i, frame := range goldenDeltaFrames() {
		if got := hex.EncodeToString(frame); got != goldenDelta[i] {
			t.Errorf("delta frame %d = %s, want %s", i, got, goldenDelta[i])
		}
	}
}

var goldenFrames = []string{
	"b6010803060161060262620603636363",                   // msg.Disclosure
	"b60209020302017804017904017a",                       // msg.AckReq
	"b603020003060161060262620603636363",                 // msg.Ack
	"b604030a00",                                         // msg.Nack
	"b605040b0c03060161060262620603636363",               // msg.AckB
	"b6060203747c78b6010403060161060262620603636363",     // msg.RBCSend
	"b6070400b6050001060302017804017904017a",             // msg.RBCEcho
	"b60806057265616479b60a0203060161060262620603636363", // msg.RBCReady
	"b6090a04626f6479",                                   // msg.NewValue
	"b60a180302017804017904017a",                         // msg.Decide
	"b60b03060161060262620603636363",                     // msg.CnfReq
	"b60c0302017804017904017a",                           // msg.CnfRep
	"b60d04060306016106026262060363636303010203",         // msg.InitVal
	"b60e04020406030601610602626206036363630301020304060306016106026262060363636303010203",                                                                   // msg.SafeReq
	"b60f0202026b31026b32010406030601610602626206036363630301020304060306016106026262060363636303010203080109",                                               // msg.SafeAck
	"b61002040104060306016106026262060363636303010203010202026b31026b32010406030601610602626206036363630301020304060306016106026262060363636303010203080109", // msg.AckReqS
	"b611040503060161060262620603636363", // msg.AckS
	"b61206060204060306016106026262060363636303010203010202026b31026b3201040603060161060262620603636363030102030406030601610602626206036363630301020308010904060306016106026262060363636303010203010202026b31026b32010406030601610602626206036363630301020304060306016106026262060363636303010203080109", // msg.NackS
	"b6130306016106026262060363636302070406020506",                                                                 // msg.SignedAck
	"b614080302017804017904017a0203060161060262620603636363020704060205060306016106026262060363636302070406020506", // msg.DecidedCert
	"b615047469636b",                                     // msg.Wakeup
	"b6160a6761726261676500c3bf",                         // msg.Junk
	"b61706b607020173b603010403060161060262620603636363", // msg.ShardMsg
	"b6180212063f203cfee3e265fa212d39e25266e7ae19fd229f2bf90efa82187f1ad4cd0dc104",             // msg.CkptProp
	"b6190210063f203cfee3e265fa212d39e25266e7ae19fd229f2bf90efa82187f1ad4cd0dc103696d67040107", // msg.CkptSig
	"b61a0210063f203cfee3e265fa212d39e25266e7ae19fd229f2bf90efa82187f1ad4cd0dc103696d67020210063f203cfee3e265fa212d39e25266e7ae19fd229f2bf90efa82187f1ad4cd0dc103696d670401070210063f203cfee3e265fa212d39e25266e7ae19fd229f2bf90efa82187f1ad4cd0dc103696d67040107", // msg.CkptCert
	"b61bbecebc0200a501f7e57438447362e5c345649d484c4f708a461f6c9cc3032c35", // msg.StateReq
	"b61cb61a0210063f203cfee3e265fa212d39e25266e7ae19fd229f2bf90efa82187f1ad4cd0dc103696d67020210063f203cfee3e265fa212d39e25266e7ae19fd229f2bf90efa82187f1ad4cd0dc103696d670401070210063f203cfee3e265fa212d39e25266e7ae19fd229f2bf90efa82187f1ad4cd0dc103696d670401070302017804017904017a", // msg.StateRep
	"b61e4d", // msg.DeltaNack
}

var goldenDelta = []string{
	"b61d01b60300000000030203636d6402056f746865720a02673029bf31e8b958ea0b93a49cd0bc6aa41ed9bece1cbd861b630e783f0b75e717dd",                                         // full
	"b61d02b6030100000129bf31e8b958ea0b93a49cd0bc6aa41ed9bece1cbd861b630e783f0b75e717dd010a026731664d5b1dae916b44ecb9ab8b699f7b1fd8f6d219dfb5646bf4ec3f7004f7185f", // delta
}
