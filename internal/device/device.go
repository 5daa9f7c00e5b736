// Package device models the edge hardware Eco-FL runs on: compute rate,
// usable training memory, and link bandwidth, with the paper's four Jetson
// power-mode presets (Table 1) and time-varying external load.
package device

import "fmt"

// Device describes one edge device participating in a pipeline.
type Device struct {
	Name string
	// ComputeRate is sustained training throughput in FLOP/s. The paper's
	// absolute Jetson numbers are unavailable; rates here preserve the
	// relative ordering implied by Table 1 (GPU frequency × core count).
	ComputeRate float64
	// MemoryBytes is usable training memory (total minus OS/runtime
	// reserve), constraining resident activations (Q_s in §4.3).
	MemoryBytes int64
	// LinkBandwidth is bytes/s on the device's network link (Table 1:
	// 100 Mbps for all devices).
	LinkBandwidth float64
	// LoadFactor scales effective compute: 1 means idle, 0.5 means half
	// the device is consumed by external work (§4.4 load spikes).
	LoadFactor float64
	// SaturationBatch models accelerator under-utilization at small batch
	// sizes: the sustained rate scales by b/(b+SaturationBatch) for batch
	// b (kernel-launch overhead, idle SMs) — the Fig. 5 "too tiny
	// micro-batch size" phenomenon. Zero disables the effect.
	SaturationBatch float64
}

// EffectiveRate returns the compute rate available to training after
// external load, at asymptotically large batch.
func (d *Device) EffectiveRate() float64 {
	lf := d.LoadFactor
	if lf <= 0 {
		lf = 1
	}
	return d.ComputeRate * lf
}

// EffectiveRateAt returns the sustained rate when processing batches of b
// samples, applying the saturation curve.
func (d *Device) EffectiveRateAt(b int) float64 {
	r := d.EffectiveRate()
	if d.SaturationBatch <= 0 || b <= 0 {
		return r
	}
	return r * float64(b) / (float64(b) + d.SaturationBatch)
}

// Clone returns a copy of the device.
func (d *Device) Clone() *Device {
	c := *d
	return &c
}

func (d *Device) String() string {
	return fmt.Sprintf("%s(%.0fGFLOPs,%.1fGB)", d.Name, d.ComputeRate/1e9, float64(d.MemoryBytes)/1e9)
}

// Bandwidth100Mbps is the link speed used throughout the paper's testbed.
const Bandwidth100Mbps = 100e6 / 8 // bytes per second

const gb = 1 << 30

// Presets for the paper's Table 1 devices. Compute rates are proportional
// to GPU max frequency × CUDA core count (Nano: 128 Maxwell cores, TX2:
// 256 Pascal cores); memory is total minus an OS/framework reserve.
func NanoL() *Device {
	return &Device{Name: "Nano-L", ComputeRate: 115e9, MemoryBytes: 22 * gb / 10, LinkBandwidth: Bandwidth100Mbps, LoadFactor: 1, SaturationBatch: 4}
}

func NanoH() *Device {
	return &Device{Name: "Nano-H", ComputeRate: 165e9, MemoryBytes: 22 * gb / 10, LinkBandwidth: Bandwidth100Mbps, LoadFactor: 1, SaturationBatch: 4}
}

func TX2Q() *Device {
	return &Device{Name: "TX2-Q", ComputeRate: 305e9, MemoryBytes: 46 * gb / 10, LinkBandwidth: Bandwidth100Mbps, LoadFactor: 1, SaturationBatch: 6}
}

func TX2N() *Device {
	return &Device{Name: "TX2-N", ComputeRate: 465e9, MemoryBytes: 46 * gb / 10, LinkBandwidth: Bandwidth100Mbps, LoadFactor: 1, SaturationBatch: 6}
}

// ByName returns a preset device by its Table 1 name.
func ByName(name string) (*Device, error) {
	switch name {
	case "Nano-L":
		return NanoL(), nil
	case "Nano-H":
		return NanoH(), nil
	case "TX2-Q":
		return TX2Q(), nil
	case "TX2-N":
		return TX2N(), nil
	}
	return nil, fmt.Errorf("device: unknown preset %q", name)
}

// CloneAll deep-copies a device slice.
func CloneAll(devs []*Device) []*Device {
	out := make([]*Device, len(devs))
	for i, d := range devs {
		out[i] = d.Clone()
	}
	return out
}
