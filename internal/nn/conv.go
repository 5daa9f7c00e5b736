package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"ecofl/internal/tensor"
)

// Conv2D is a 2-D convolution over NCHW tensors, implemented as im2col +
// matmul. Shapes: input (batch, InC, H, W) → output (batch, OutC, H', W')
// with H' = (H + 2·Pad − K)/Stride + 1.
//
// The im2col/col2im lowering and the data re-layouts are parallelized across
// the batch dimension (each sample owns a disjoint region), and every
// transient buffer — the cols matrix, the flattened matmul operands, the
// weight-gradient scratch — comes from the tensor buffer pool, so a
// steady-state training step allocates next to nothing: Forward's cols
// buffer is recycled by the matching Backward.
type Conv2D struct {
	InC, OutC, K, Stride, Pad int
	W                         *Param // (OutC, InC·K·K)
	B                         *Param // (OutC)
}

// NewConv2D creates a convolution with Kaiming initialization.
func NewConv2D(rng *rand.Rand, inC, outC, k, stride, pad int) *Conv2D {
	if k <= 0 || stride <= 0 || inC <= 0 || outC <= 0 || pad < 0 {
		panic("nn: invalid Conv2D geometry")
	}
	fanIn := inC * k * k
	std := math.Sqrt(2.0 / float64(fanIn))
	return &Conv2D{
		InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad,
		W: &Param{Name: fmt.Sprintf("conv%dx%dk%d.W", inC, outC, k),
			Value: tensor.Randn(rng, std, outC, fanIn), Grad: tensor.New(outC, fanIn)},
		B: &Param{Name: fmt.Sprintf("conv%dx%dk%d.b", inC, outC, k),
			Value: tensor.New(outC), Grad: tensor.New(outC)},
	}
}

func (c *Conv2D) outDims(h, w int) (int, int) {
	oh := (h+2*c.Pad-c.K)/c.Stride + 1
	ow := (w+2*c.Pad-c.K)/c.Stride + 1
	return oh, ow
}

type convCache struct {
	x      *tensor.Tensor
	cols   *tensor.Tensor // (batch·OH·OW, InC·K·K), pooled — recycled by Backward
	h, w   int
	oh, ow int
	// job carries Conv2D's per-sample loops to tensor.ParallelRows, one at
	// a time; kept here, handing it over allocates nothing.
	job convJob
}

// convCachePool recycles cache structs across Forward/Backward pairs. A
// cache discarded without a Backward (forward-only evaluation) is simply
// collected by the GC.
var convCachePool = sync.Pool{New: func() any { return new(convCache) }}

// convJob is one of Conv2D's loops over the samples of a batch, as a typed
// fan-out job: the layer, the input and output sizes and the tensor the loop
// reads (src) and the one it writes (dst). Each sample owns a disjoint
// region of dst, so samples run in parallel and every element is computed
// in the order the serial loop uses. The loops are views of the one record,
// each with its own Rows.
type convJob struct {
	c            *Conv2D
	src, dst     *tensor.Tensor
	h, w, oh, ow int
}

type (
	// im2colRows lowers the padded input src into dst, whose rows are
	// receptive fields, one row per (sample, output position). Every element
	// of dst is written (padding positions explicitly zeroed), so dst may be
	// a stale pooled buffer.
	im2colRows convJob
	// col2imRows scatters column gradients src back to input positions
	// (the transpose of im2col), writing into dx = dst. Each sample's input
	// region is zeroed then accumulated, so dst may be a stale pooled
	// buffer.
	col2imRows convJob
	// biasRows lays the (batch·OH·OW, OutC) matmul product src out as the
	// NCHW output dst and adds the bias.
	biasRows convJob
)

// run fans the loop out over the batch, at most width wide; work is its
// scalar-operation count. The job holds its tensors only while it runs.
func (j *convJob) run(rows tensor.RowJob, batch, work, width int) {
	tensor.ParallelRows(batch, work, width, rows)
	j.src, j.dst = nil, nil
}

func (j *im2colRows) Rows(nLo, nHi int) {
	c, cols, x := j.c, j.dst, j.src
	h, w, oh, ow := j.h, j.w, j.oh, j.ow
	fan := c.InC * c.K * c.K
	for n := nLo; n < nHi; n++ {
		base := n * c.InC * h * w
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				row := cols.Data[((n*oh+oy)*ow+ox)*fan : ((n*oh+oy)*ow+ox+1)*fan]
				idx := 0
				for ch := 0; ch < c.InC; ch++ {
					for ky := 0; ky < c.K; ky++ {
						iy := oy*c.Stride + ky - c.Pad
						for kx := 0; kx < c.K; kx++ {
							ix := ox*c.Stride + kx - c.Pad
							if iy >= 0 && iy < h && ix >= 0 && ix < w {
								row[idx] = x.Data[base+ch*h*w+iy*w+ix]
							} else {
								row[idx] = 0
							}
							idx++
						}
					}
				}
			}
		}
	}
}

func (j *col2imRows) Rows(nLo, nHi int) {
	c, dx, cols := j.c, j.dst, j.src
	h, w, oh, ow := j.h, j.w, j.oh, j.ow
	fan := c.InC * c.K * c.K
	per := c.InC * h * w
	for n := nLo; n < nHi; n++ {
		base := n * per
		region := dx.Data[base : base+per]
		for i := range region {
			region[i] = 0
		}
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				row := cols.Data[((n*oh+oy)*ow+ox)*fan : ((n*oh+oy)*ow+ox+1)*fan]
				idx := 0
				for ch := 0; ch < c.InC; ch++ {
					for ky := 0; ky < c.K; ky++ {
						iy := oy*c.Stride + ky - c.Pad
						for kx := 0; kx < c.K; kx++ {
							ix := ox*c.Stride + kx - c.Pad
							if iy >= 0 && iy < h && ix >= 0 && ix < w {
								dx.Data[base+ch*h*w+iy*w+ix] += row[idx]
							}
							idx++
						}
					}
				}
			}
		}
	}
}

func (j *biasRows) Rows(nLo, nHi int) {
	c, out, flat := j.c, j.dst, j.src
	oh, ow := j.oh, j.ow
	bias := c.B.Value.Data
	for n := nLo; n < nHi; n++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				r := ((n*oh+oy)*ow + ox) * c.OutC
				for ch := 0; ch < c.OutC; ch++ {
					out.Data[((n*c.OutC+ch)*oh+oy)*ow+ox] = flat.Data[r+ch] + bias[ch]
				}
			}
		}
	}
}

func (c *Conv2D) Forward(x *tensor.Tensor, width int) (*tensor.Tensor, Cache) {
	if len(x.Shape) != 4 || x.Shape[1] != c.InC {
		panic(fmt.Sprintf("nn: Conv2D wants (batch,%d,H,W), got %v", c.InC, x.Shape))
	}
	batch, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow := c.outDims(h, w)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: Conv2D output empty for input %v", x.Shape))
	}
	fan := c.InC * c.K * c.K
	cc := convCachePool.Get().(*convCache)
	cc.x, cc.cols, cc.h, cc.w, cc.oh, cc.ow = x, tensor.GetBufUninit(batch*oh*ow, fan), h, w, oh, ow
	j := &cc.job
	*j = convJob{c: c, src: x, dst: cc.cols, h: h, w: w, oh: oh, ow: ow}
	j.run((*im2colRows)(j), batch, batch*oh*ow*fan, width)
	// (batch·OH·OW, fan) × (OutC, fan)ᵀ → (batch·OH·OW, OutC)
	flat := tensor.MatMulBTInto(tensor.GetBufUninit(batch*oh*ow, c.OutC), cc.cols, c.W.Value, width)
	out := tensor.GetBufUninit(batch, c.OutC, oh, ow)
	j.src, j.dst = flat, out
	j.run((*biasRows)(j), batch, batch*c.OutC*oh*ow, width)
	tensor.PutBuf(flat)
	return out, cc
}

func (c *Conv2D) Backward(cc Cache, dy *tensor.Tensor, width int) *tensor.Tensor {
	cache := cc.(*convCache)
	flat := c.accumulate(cache, dy, width)
	// dcols = flat × W
	batch, oh, ow := cache.x.Shape[0], cache.oh, cache.ow
	dcols := tensor.MatMulInto(tensor.GetBufUninit(batch*oh*ow, c.InC*c.K*c.K), flat, c.W.Value, width)
	tensor.PutBuf(flat)
	dx := tensor.GetBufUninit(batch, c.InC, cache.h, cache.w)
	j := &cache.job
	j.src, j.dst = dcols, dx
	j.run((*col2imRows)(j), batch, batch*oh*ow*c.InC*c.K*c.K, width)
	tensor.PutBuf(dcols)
	cache.recycle()
	return dx
}

// paramGrads is Backward without the input gradient: it accumulates dW and
// db and recycles the cache.
func (c *Conv2D) paramGrads(cc Cache, dy *tensor.Tensor, width int) {
	cache := cc.(*convCache)
	tensor.PutBuf(c.accumulate(cache, dy, width))
	cache.recycle()
}

// accumulate adds one Forward's contribution to dW and db and returns dy laid
// out as the (batch·OH·OW, OutC) matrix flat, a pooled tensor the caller
// returns.
func (c *Conv2D) accumulate(cache *convCache, dy *tensor.Tensor, width int) *tensor.Tensor {
	if cache.x == nil {
		panic("nn: Conv2D cache passed to Backward twice (caches are single-use)")
	}
	batch := cache.x.Shape[0]
	oh, ow := cache.oh, cache.ow
	// Re-layout dy (batch, OutC, OH, OW) → (batch·OH·OW, OutC). Kept serial:
	// the bias gradient accumulates across samples here, and its float64
	// summation order must not depend on the width.
	flat := tensor.GetBufUninit(batch*oh*ow, c.OutC)
	bg := c.B.Grad.Data
	for n := 0; n < batch; n++ {
		for ch := 0; ch < c.OutC; ch++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					v := dy.Data[((n*c.OutC+ch)*oh+oy)*ow+ox]
					flat.Data[((n*oh+oy)*ow+ox)*c.OutC+ch] = v
					bg[ch] += v
				}
			}
		}
	}
	// dW = flatᵀ × cols
	dw := tensor.MatMulATInto(tensor.GetBufUninit(c.OutC, c.InC*c.K*c.K), flat, cache.cols, width)
	c.W.Grad.Add(dw)
	tensor.PutBuf(dw)
	return flat
}

// recycle returns a spent cache and the cols buffer it holds to their pools.
func (cache *convCache) recycle() {
	tensor.PutBuf(cache.cols)
	*cache = convCache{}
	convCachePool.Put(cache)
}

func (c *Conv2D) Params() []*Param { return []*Param{c.W, c.B} }

func (c *Conv2D) OutShape(in []int) []int {
	oh, ow := c.outDims(in[1], in[2])
	return []int{c.OutC, oh, ow}
}

func (c *Conv2D) Clone() Layer {
	return &Conv2D{
		InC: c.InC, OutC: c.OutC, K: c.K, Stride: c.Stride, Pad: c.Pad,
		W: c.W.view(),
		B: c.B.view(),
	}
}

// ---------------------------------------------------------------- MaxPool2D

// MaxPool2D is max pooling over NCHW tensors.
type MaxPool2D struct {
	K, Stride int
}

type poolCache struct {
	inShape []int
	argmax  []int // flat input index of each output element
}

func (p MaxPool2D) Forward(x *tensor.Tensor, _ int) (*tensor.Tensor, Cache) {
	if len(x.Shape) != 4 {
		panic(fmt.Sprintf("nn: MaxPool2D wants NCHW, got %v", x.Shape))
	}
	batch, ch, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh := (h-p.K)/p.Stride + 1
	ow := (w-p.K)/p.Stride + 1
	out := tensor.GetBufUninit(batch, ch, oh, ow)
	arg := make([]int, out.Len())
	oi := 0
	for n := 0; n < batch; n++ {
		for cch := 0; cch < ch; cch++ {
			base := (n*ch + cch) * h * w
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					best := math.Inf(-1)
					bestIdx := -1
					for ky := 0; ky < p.K; ky++ {
						for kx := 0; kx < p.K; kx++ {
							idx := base + (oy*p.Stride+ky)*w + ox*p.Stride + kx
							if v := x.Data[idx]; v > best {
								best, bestIdx = v, idx
							}
						}
					}
					out.Data[oi] = best
					arg[oi] = bestIdx
					oi++
				}
			}
		}
	}
	return out, &poolCache{inShape: x.Shape, argmax: arg}
}

func (p MaxPool2D) Backward(c Cache, dy *tensor.Tensor, _ int) *tensor.Tensor {
	cache := c.(*poolCache)
	dx := tensor.GetBuf(cache.inShape...)
	for i, idx := range cache.argmax {
		dx.Data[idx] += dy.Data[i]
	}
	return dx
}

func (MaxPool2D) Params() []*Param { return nil }
func (p MaxPool2D) Clone() Layer   { return p }

func (p MaxPool2D) OutShape(in []int) []int {
	return []int{in[0], (in[1]-p.K)/p.Stride + 1, (in[2]-p.K)/p.Stride + 1}
}

// ---------------------------------------------------------------- Flatten

// Flatten reshapes (batch, ...) to (batch, features). Row-major layout makes
// this a metadata-only operation.
type Flatten struct{}

func (Flatten) Forward(x *tensor.Tensor, _ int) (*tensor.Tensor, Cache) {
	out := &tensor.Tensor{Shape: []int{x.Rows(), x.Cols()}, Data: x.Data}
	return out, x.Shape
}

func (Flatten) Backward(c Cache, dy *tensor.Tensor, _ int) *tensor.Tensor {
	shape := c.([]int)
	return &tensor.Tensor{Shape: append([]int(nil), shape...), Data: dy.Data}
}

func (Flatten) Params() []*Param { return nil }
func (Flatten) Clone() Layer     { return Flatten{} }

func (Flatten) OutShape(in []int) []int {
	n := 1
	for _, d := range in {
		n *= d
	}
	return []int{n}
}
