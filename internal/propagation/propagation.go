// Package propagation implements the radio propagation models used by the
// simulator: free-space (Friis) and two-ray ground reflection path loss, and
// Rayleigh small-scale fading.
//
// The paper's simulations (§4.1) use the TwoRay propagation model with
// Rayleigh fading, a 250 m nominal radio range and a 2 Mbps channel. The
// default radio constants below are the classic GloMoSim/ns-2 914 MHz WaveLAN
// parameters, which yield exactly that 250 m range at the receive threshold.
package propagation

import (
	"math"
	"time"

	"meshcast/internal/sim"
)

// Speed of light in m/s, used for the Friis crossover distance and
// propagation delay.
const SpeedOfLight = 299792458.0

// Delay returns the free-space propagation delay across distanceM metres.
func Delay(distanceM float64) time.Duration {
	return time.Duration(distanceM / SpeedOfLight * float64(time.Second))
}

// Default radio constants (GloMoSim / ns-2 WaveLAN at 914 MHz). With the
// two-ray model these give a 250 m receive range and a 550 m carrier-sense
// range, the geometry the paper assumes.
const (
	// DefaultTxPowerW is the transmit power (281.8 mW ≈ 24.5 dBm).
	DefaultTxPowerW = 0.2818
	// DefaultFrequencyHz is the carrier frequency (914 MHz).
	DefaultFrequencyHz = 914e6
	// DefaultAntennaHeightM is the antenna height above ground for both
	// transmitter and receiver.
	DefaultAntennaHeightM = 1.5
	// DefaultAntennaGain is the (linear) antenna gain at both ends.
	DefaultAntennaGain = 1.0
	// DefaultSystemLoss is the (linear) system loss factor L >= 1.
	DefaultSystemLoss = 1.0
	// DefaultRxThresholdW is the receive threshold: mean received power at
	// 250 m under the two-ray model.
	DefaultRxThresholdW = 3.652e-10
	// DefaultCSThresholdW is the carrier-sense threshold: mean received
	// power at roughly 550 m under the two-ray model.
	DefaultCSThresholdW = 1.559e-11
)

// PathLoss computes mean received power for a transmit power and distance.
type PathLoss interface {
	// ReceivedPower returns the mean received power in watts at distance d
	// metres when transmitting with txPower watts.
	ReceivedPower(txPower, d float64) float64
}

// Friis is the free-space path-loss model:
//
//	Pr = Pt·Gt·Gr·λ² / ((4π·d)²·L)
type Friis struct {
	// WavelengthM is the carrier wavelength λ in metres.
	WavelengthM float64
	// GainTx and GainRx are linear antenna gains.
	GainTx, GainRx float64
	// SystemLoss is the linear loss factor L (>= 1).
	SystemLoss float64
}

var _ PathLoss = Friis{}

// NewFriis returns a Friis model at the given carrier frequency with default
// gains and losses.
func NewFriis(frequencyHz float64) Friis {
	return Friis{
		WavelengthM: SpeedOfLight / frequencyHz,
		GainTx:      DefaultAntennaGain,
		GainRx:      DefaultAntennaGain,
		SystemLoss:  DefaultSystemLoss,
	}
}

// ReceivedPower implements PathLoss. At d == 0 it returns the transmit power
// (the model is not meaningful below one wavelength anyway).
func (f Friis) ReceivedPower(txPower, d float64) float64 {
	if d <= 0 {
		return txPower
	}
	den := (4 * math.Pi * d / f.WavelengthM)
	return txPower * f.GainTx * f.GainRx / (den * den * f.SystemLoss)
}

// TwoRay is the two-ray ground reflection model. Below the crossover
// distance dc = 4π·ht·hr/λ it falls back to Friis (the two-ray approximation
// is invalid there); beyond it:
//
//	Pr = Pt·Gt·Gr·ht²·hr² / (d⁴·L)
type TwoRay struct {
	// HeightTxM and HeightRxM are antenna heights in metres.
	HeightTxM, HeightRxM float64
	// Friis handles short distances and supplies gains/losses.
	Friis Friis
	// crossover is computed once at construction.
	crossover float64
}

var _ PathLoss = TwoRay{}

// NewTwoRay returns a two-ray model with the default WaveLAN constants.
func NewTwoRay() TwoRay {
	return NewTwoRayAt(DefaultFrequencyHz, DefaultAntennaHeightM, DefaultAntennaHeightM)
}

// NewTwoRayAt returns a two-ray model at the given frequency and antenna
// heights.
func NewTwoRayAt(frequencyHz, heightTxM, heightRxM float64) TwoRay {
	f := NewFriis(frequencyHz)
	return TwoRay{
		HeightTxM: heightTxM,
		HeightRxM: heightRxM,
		Friis:     f,
		crossover: 4 * math.Pi * heightTxM * heightRxM / f.WavelengthM,
	}
}

// ReceivedPower implements PathLoss.
func (t TwoRay) ReceivedPower(txPower, d float64) float64 {
	if d < t.crossover {
		return t.Friis.ReceivedPower(txPower, d)
	}
	h := t.HeightTxM * t.HeightRxM
	return txPower * t.Friis.GainTx * t.Friis.GainRx * h * h / (d * d * d * d * t.Friis.SystemLoss)
}

// Fading perturbs a mean received power into a per-packet instantaneous
// power.
type Fading interface {
	// Apply returns the instantaneous received power for a packet whose
	// mean received power is meanPower, drawing randomness from rng.
	Apply(meanPower float64, rng *sim.RNG) float64
}

// NoFading passes the mean power through unchanged. Used by the fading
// ablation experiment.
type NoFading struct{}

var _ Fading = NoFading{}

// Apply implements Fading.
func (NoFading) Apply(meanPower float64, _ *sim.RNG) float64 { return meanPower }

// Rayleigh models small-scale Rayleigh fading: with a Rayleigh-distributed
// envelope, instantaneous received *power* is exponentially distributed with
// the path-loss value as its mean. This is the standard model for rich
// multipath without line of sight — the environment the paper argues is
// typical for mesh deployments (§4.1).
type Rayleigh struct{}

var _ Fading = Rayleigh{}

// Apply implements Fading.
func (Rayleigh) Apply(meanPower float64, rng *sim.RNG) float64 {
	return meanPower * rng.ExpFloat64()
}

// ReceptionProbability returns the closed-form probability that a packet is
// received above threshold under Rayleigh fading given its mean received
// power: P(power > threshold) = exp(-threshold/mean). Exposed for tests and
// for analytical link-quality tables.
func ReceptionProbability(meanPower, threshold float64) float64 {
	if meanPower <= 0 {
		return 0
	}
	return math.Exp(-threshold / meanPower)
}

// LogNormal models shadow fading: the received power is scaled by a
// log-normally distributed factor with the given standard deviation in dB
// (typical indoor/outdoor values are 4-10 dB). The factor's *median* is 1,
// matching how shadowing is usually composed with a distance-based mean.
type LogNormal struct {
	// SigmaDB is the shadowing standard deviation in dB.
	SigmaDB float64
}

var _ Fading = LogNormal{}

// Apply implements Fading.
func (l LogNormal) Apply(meanPower float64, rng *sim.RNG) float64 {
	db := rng.NormFloat64() * l.SigmaDB
	return meanPower * math.Pow(10, db/10)
}

// Composite applies several fading processes in sequence — e.g. log-normal
// shadowing on top of Rayleigh multipath, the standard composite channel
// model for non-line-of-sight links.
type Composite []Fading

var _ Fading = Composite{}

// Apply implements Fading.
func (c Composite) Apply(meanPower float64, rng *sim.RNG) float64 {
	p := meanPower
	for _, f := range c {
		p = f.Apply(p, rng)
	}
	return p
}
