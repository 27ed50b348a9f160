package quant

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/nn"
	"repro/internal/xrand"
)

// handNet builds an Int8Net with layer widths widths[0] → … → 1 and random
// integer parameters drawn from rng: full-range weights, random zero points,
// ReLU on or off per hidden layer, and requantization multipliers spread
// over a decade around the one that maps a typical accumulator onto the
// int8 grid, so outputs land both inside the grid and on its rails.
func handNet(rng *xrand.RNG, widths []int, perChannel bool) *Int8Net {
	n := &Int8Net{Input: QParams{Scale: float32(rng.Uniform(0.01, 0.2)), Zero: int32(rng.IntN(256)) - 128}}
	inZero := n.Input.Zero
	for li := 0; li+1 < len(widths); li++ {
		in, out := widths[li], widths[li+1]
		l := Int8Layer{
			In: in, Out: out,
			W:          make([]int8, in*out),
			Bias:       make([]int32, out),
			InZero:     inZero,
			PerChannel: perChannel,
			Final:      li+2 == len(widths),
		}
		for i := range l.W {
			l.W[i] = int8(rng.Uint64())
		}
		spread := math.Sqrt(float64(in))
		for i := range l.Bias {
			l.Bias[i] = int32(rng.Uniform(-4096, 4096) * spread)
		}
		multiplier := func() (int32, uint) {
			return requantMultiplier(math.Pow(10, rng.Uniform(-0.7, 0.3)) / (90 * spread))
		}
		if l.Final {
			l.DeqScale = float32(rng.Uniform(1e-5, 1e-3))
			if perChannel {
				l.DeqScales = []float32{l.DeqScale}
			}
		} else {
			l.ReLU = rng.Bool(0.5)
			l.OutZero = int32(rng.IntN(256)) - 128
			inZero = l.OutZero
			if perChannel {
				l.M0s = make([]int32, out)
				l.Shifts = make([]uint, out)
				for o := range l.M0s {
					l.M0s[o], l.Shifts[o] = multiplier()
				}
			} else {
				l.M0, l.Shift = multiplier()
			}
		}
		n.Layers = append(n.Layers, l)
	}
	return n
}

// gaussianBatch returns rows×cols features drawn N(0, sigma²): wide enough
// that the input quantizer saturates on some of them.
func gaussianBatch(rng *xrand.RNG, rows, cols int, sigma float64) *nn.Tensor {
	x := nn.NewTensor(rows, cols)
	for i := range x.Data {
		x.Data[i] = float32(rng.Gaussian(0, sigma))
	}
	return x
}

// logitsDigest is the sha256 of a batch's logits as little-endian float32
// bits.
func logitsDigest(logits []float32) string {
	buf := make([]byte, 4*len(logits))
	for i, v := range logits {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// TestLogitsGolden pins the bits of batched int8 inference. The digests
// were recorded with the per-(row, output) dot-product implementation that
// preceded the packed-panel kernel; integer accumulation is exact, so any
// kernel must reproduce them at every batch size. The converted nets come
// out of float training, whose bits are pinned on amd64 only; the
// hand-built nets are integer throughout and checked everywhere.
func TestLogitsGolden(t *testing.T) {
	type netCase struct {
		name      string
		net       func(t *testing.T) *Int8Net
		converted bool
	}
	cases := []netCase{
		{"converted/per-tensor", func(t *testing.T) *Int8Net { n, _ := convertTrained(t, false); return n }, true},
		{"converted/per-channel", func(t *testing.T) *Int8Net { n, _ := convertTrained(t, true); return n }, true},
		{"converted/paper-shape", func(t *testing.T) *Int8Net { n, _, _ := benchInt8(t); return n }, true},
		{"hand/13-255-127-63-1", func(*testing.T) *Int8Net {
			return handNet(xrand.New(71), []int{13, 255, 127, 63, 1}, false)
		}, false},
		{"hand/per-channel/7-33-17-1", func(*testing.T) *Int8Net {
			return handNet(xrand.New(72), []int{7, 33, 17, 1}, true)
		}, false},
		{"hand/1-1-1", func(*testing.T) *Int8Net {
			return handNet(xrand.New(73), []int{1, 1, 1}, false)
		}, false},
		{"hand/per-channel/301-5-1", func(*testing.T) *Int8Net {
			return handNet(xrand.New(74), []int{301, 5, 1}, true)
		}, false},
	}
	want := map[string]string{
		"converted/per-tensor/1":         "5a022e5d03690548a1c324d7e6ca72c437c0f0c140ed1a7b6f1b8cb8f9ec1afd",
		"converted/per-tensor/7":         "e96a4993d7805f4e6852d1fe64a876cf80e1a622f7de955df210c8edcb5fd5ea",
		"converted/per-tensor/513":       "ff06c586eff103733b3a0f73c24e6468cb7ab359419b4a41a8015014309991ae",
		"converted/per-channel/1":        "534cfc1ad5f6487b116ef83f4cf645a62eeb42e032719c5b388fe86802215f7b",
		"converted/per-channel/7":        "0ba93d5e6ff31b5a470cb53ef1e354b45bfa6ef268add93b2d7edeacbe8a347d",
		"converted/per-channel/513":      "90e80b233cbeb1fa872252c53d50cfaaeb64aaf07a43a13bdfce05c2bee5b31d",
		"converted/paper-shape/1":        "b9bbb568e5f74f3d1ffbea0d940e748afcc971949f81252e8e06312fbbf38674",
		"converted/paper-shape/7":        "382f50d3977d3a7392259648308b4fa79436e35973e70a673e620a43d0e389a4",
		"converted/paper-shape/513":      "bb50aec7fb8db49380a8bb7825044c2dae7a7196e19b54cf326a8ec679464e12",
		"hand/13-255-127-63-1/1":         "941970ebcb2a2ed7fb1357eccd419a44083951029cd1a239b6ef5928e4ce9ddc",
		"hand/13-255-127-63-1/7":         "99360c6dd90ea60789f6f71cdd6e6276eaffa49f636d56e44757a67233dd5861",
		"hand/13-255-127-63-1/513":       "6c79fcb7bd353f1f6d89eb7408d543c941c3a5ec5a8c30ba45ecc2dc72e210d5",
		"hand/per-channel/7-33-17-1/1":   "9311b6d7e28051eac2f022c5ec2e876ac6bc7ab6104200c283f40c52d85444cc",
		"hand/per-channel/7-33-17-1/7":   "898f291fba3f04e885a41ac981d7d0389c361fdd035c78308a05341ef06e7b1d",
		"hand/per-channel/7-33-17-1/513": "e9442f7875bb70b9632244c31865a99cb17bcdf54c2c24d6179e8abacb0deb23",
		"hand/1-1-1/1":                   "d534dcd9a10fafeee97dceafb25f3e96b02dbb68ca89cc24ddc2f205b179ebfa",
		"hand/1-1-1/7":                   "5f45f076c83b99a349ad72c8e234cac20539e6f21855f3e205bd2623ab9354d0",
		"hand/1-1-1/513":                 "06150f9dd6a9f5bcb7c9872b1356683e7ae580b2b307b7c9046de95673e64794",
		"hand/per-channel/301-5-1/1":     "88cc6fada2ff1be62f2be2dea4d0e569209c2f213782b1d9d72b00e5f27a78c7",
		"hand/per-channel/301-5-1/7":     "a1f7fae42be96ccec57f138c6630edae9bc87e12721206760384305d150549de",
		"hand/per-channel/301-5-1/513":   "f05ab02800cb8070943ab642bef281b9a5fc4a1f52d9760aec93f1b3f925e31a",
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.converted && runtime.GOARCH != "amd64" {
				t.Skip("converted-net digests are recorded on amd64")
			}
			net := c.net(t)
			cols := net.Layers[0].In
			for _, rows := range []int{1, 7, 513} {
				x := gaussianBatch(xrand.New(uint64(rows)), rows, cols, 3)
				got := logitsDigest(net.Logits(x))
				key := c.name + "/" + strconv.Itoa(rows)
				if w, ok := want[key]; !ok {
					t.Errorf("%s: no digest recorded; got %s", key, got)
				} else if got != w {
					t.Errorf("%s: logits digest %s, want %s", key, got, w)
				}
			}
		})
	}
}
