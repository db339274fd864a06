package netflow

import (
	"math/rand"
	"testing"
)

func TestSamplerPassThrough(t *testing.T) {
	s := NewSampler(1, rand.New(rand.NewSource(1)))
	r := Record{Packets: 10, Bytes: 1000}
	got, ok := s.Sample(r)
	if !ok || got.Packets != 10 || got.Bytes != 1000 {
		t.Fatalf("1:1 sampling must pass through, got %+v ok=%v", got, ok)
	}
	if NewSampler(0, nil).N != 1 {
		t.Fatal("n<1 must clamp to 1")
	}
}

func TestSamplerUnbiasedInExpectation(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	s := NewSampler(100, rng)
	const trials = 3000
	r := Record{Packets: 500, Bytes: 500 * 64}
	var sumPkts, sumBytes float64
	for i := 0; i < trials; i++ {
		got, ok := s.Sample(r)
		if ok {
			sumPkts += float64(got.Packets)
			sumBytes += float64(got.Bytes)
		}
	}
	meanPkts := sumPkts / trials
	meanBytes := sumBytes / trials
	// Expectation equals the original value; allow 10% statistical slack.
	if meanPkts < 450 || meanPkts > 550 {
		t.Fatalf("mean packets %v, want ≈500", meanPkts)
	}
	if meanBytes < 0.9*500*64 || meanBytes > 1.1*500*64 {
		t.Fatalf("mean bytes %v, want ≈%v", meanBytes, 500*64)
	}
}

func TestSamplerLargeFlowApproximation(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	s := NewSampler(1000, rng)
	r := Record{Packets: 1_000_000, Bytes: 64_000_000}
	var sum float64
	const trials = 200
	for i := 0; i < trials; i++ {
		got, ok := s.Sample(r)
		if !ok {
			t.Fatal("million-packet flow should essentially always survive 1:1000 sampling")
		}
		sum += float64(got.Packets)
	}
	mean := sum / trials
	if mean < 0.95e6 || mean > 1.05e6 {
		t.Fatalf("mean %v, want ≈1e6", mean)
	}
}

func TestSamplerDropsSmallFlowsSometimes(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	s := NewSampler(1000, rng)
	r := Record{Packets: 2, Bytes: 128}
	dropped := 0
	for i := 0; i < 500; i++ {
		if _, ok := s.Sample(r); !ok {
			dropped++
		}
	}
	if dropped < 400 {
		t.Fatalf("2-packet flow under 1:1000 sampling should almost always vanish, dropped %d/500", dropped)
	}
}
