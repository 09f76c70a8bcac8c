package faultnet

import (
	"fmt"
	"math/rand"

	"bgla/internal/ident"
	"bgla/internal/msg"
)

// DelayModel decides the base delivery delay of each cross-process
// message, before any fault rule applies. Returned delays are clamped
// to >= 1; self-deliveries never consult the model and always take 0,
// so virtual time counts message delays (paper §3, Theorems 3 and 8).
type DelayModel interface {
	Delay(from, to ident.ProcessID, m msg.Msg, now uint64, rng *rand.Rand) uint64
}

// Fixed delays every message by a constant. Fixed(1), the default, is
// the unit-delay network of the message-delay measurements.
type Fixed uint64

// Delay implements DelayModel.
func (f Fixed) Delay(ident.ProcessID, ident.ProcessID, msg.Msg, uint64, *rand.Rand) uint64 {
	return uint64(f)
}

// Uniform draws delays uniformly from [Lo, Hi]; it makes no draw when
// Hi <= Lo and returns Lo.
type Uniform struct {
	Lo, Hi uint64
}

// Delay implements DelayModel.
func (u Uniform) Delay(_, _ ident.ProcessID, _ msg.Msg, _ uint64, rng *rand.Rand) uint64 {
	if u.Hi <= u.Lo {
		return u.Lo
	}
	return u.Lo + uint64(rng.Int63n(int64(u.Hi-u.Lo+1)))
}

// DelayFunc adapts a function to a DelayModel (closed-world runs only:
// a live net cannot bound it).
type DelayFunc func(from, to ident.ProcessID, m msg.Msg, now uint64, rng *rand.Rand) uint64

// Delay implements DelayModel.
func (f DelayFunc) Delay(from, to ident.ProcessID, m msg.Msg, now uint64, rng *rand.Rand) uint64 {
	return f(from, to, m, now, rng)
}

// SenderStagger delays every message originating at a process by that
// process's configured offset on top of the base model. It builds the
// staggered schedules that force nack/refinement cascades in the
// worst-case latency experiments.
type SenderStagger struct {
	Base   DelayModel
	Offset map[ident.ProcessID]uint64
}

// Delay implements DelayModel.
func (s SenderStagger) Delay(from, to ident.ProcessID, m msg.Msg, now uint64, rng *rand.Rand) uint64 {
	return s.Base.Delay(from, to, m, now, rng) + s.Offset[from]
}

// delayBound is the largest base delay a live net's model can draw,
// which sizes its lull gap. It panics on a model it cannot bound.
func delayBound(d DelayModel) uint64 {
	switch v := d.(type) {
	case Fixed:
		return uint64(v)
	case Uniform:
		return max(v.Lo, v.Hi)
	}
	panic(fmt.Sprintf("faultnet: a started net needs a Fixed or Uniform delay model, got %T", d))
}
