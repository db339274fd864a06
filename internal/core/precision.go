package core

import (
	"fmt"

	"github.com/xatu-go/xatu/internal/nn"
)

// Precision once selected a serving arithmetic. Serving is float32 and the
// float64 Stream is the oracle, so nothing reads a Precision any more: the
// type and its two values stay declared only because the frozen benchmark
// (bench/) sets engine.MonitorConfig.Precision, and go with that field.
type Precision uint8

const (
	PrecisionFloat64 Precision = iota
	PrecisionFloat32
)

// Quantized32 is a model's float32 serving form: panel-packed LSTM cells
// and head, built once per model and shared read-only by every stream and
// runner on the lane.
type Quantized32 struct {
	lstms [numBranches]*nn.LSTM32
	head  *nn.Dense32
}

// Quantized32 returns the model's cached float32 serving form, building
// it on first use. Quantization fails on non-finite or float32-overflowing
// weights — the signature of a corrupt weight file — so callers that
// pre-quantize at load time surface bad models before serving starts.
// Fit invalidates the cache after updating weights.
func (m *Model) Quantized32() (*Quantized32, error) {
	m.q32mu.Lock()
	defer m.q32mu.Unlock()
	if m.q32 != nil {
		return m.q32, nil
	}
	q := &Quantized32{}
	for b, l := range m.lstms {
		if l == nil {
			continue
		}
		ql, err := l.Quantize32()
		if err != nil {
			return nil, fmt.Errorf("core: quantizing branch %d: %w", b, err)
		}
		q.lstms[b] = ql
	}
	qh, err := m.head.Quantize32()
	if err != nil {
		return nil, fmt.Errorf("core: quantizing head: %w", err)
	}
	q.head = qh
	m.q32 = q
	return q, nil
}

func (m *Model) invalidateQuantized() {
	m.q32mu.Lock()
	m.q32 = nil
	m.q32mu.Unlock()
}

// arena hands out float32 slices carved from large chunks, so the stream
// state of one model lane sits in a few contiguous slabs instead of
// thousands of separate heap objects — gather/scatter in the batch runner
// then walks nearly-linear memory. Allocation is grow-only: slots are
// never freed or moved (the engine retires channels by rebuilding whole
// Monitors, never by deleting streams in place), so handed-out slices stay
// valid for the arena's lifetime. Not safe for concurrent use.
type arena struct {
	cur []float32
	off int
}

// arenaChunkFloats is the chunk granularity (256 KiB). Big enough that a
// lane's streams span few chunks, small enough not to strand memory on
// tiny lanes.
const arenaChunkFloats = 1 << 16

// alloc returns a zeroed float32 slice of length n with capacity clamped
// to n (appends cannot bleed into neighboring slots).
func (a *arena) alloc(n int) nn.Vec32 {
	if n > len(a.cur)-a.off {
		size := arenaChunkFloats
		if n > size {
			size = n
		}
		a.cur = make([]float32, size)
		a.off = 0
	}
	v := a.cur[a.off : a.off+n : a.off+n]
	a.off += n
	return v
}
