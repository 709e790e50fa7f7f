package hw

import (
	"errors"
	"fmt"
)

// Config describes one server.
type Config struct {
	// Topology.
	Sockets        int // number of CPU sockets
	CoresPerSocket int // physical cores per socket
	ThreadsPerCore int // hyperthreads per physical core

	// Frequency domain (GHz).
	NominalGHz  float64 // guaranteed base frequency
	MinGHz      float64 // lowest DVFS operating point
	MaxTurboGHz float64 // single-core max turbo
	TurboBinGHz float64 // turbo reduction per additional active core

	// Last-level cache, per socket.
	LLCMB   float64 // capacity in MB
	LLCWays int     // way count (CAT partitioning granularity)

	// Memory system, per socket.
	DRAMGBs float64 // peak streaming DRAM bandwidth (GB/s)

	// Power, per socket.
	TDPWatts     float64 // thermal design power
	IdleWatts    float64 // uncore + package idle power
	CoreDynWatts float64 // dynamic power of one core at nominal GHz, activity 1.0
	FreqExponent float64 // P ~ f^FreqExponent (captures V scaling with f)

	// Network.
	LinkGbps float64 // full-duplex NIC line rate
}

// DefaultConfig returns the dual-socket Haswell-class server modelled on the
// paper's testbed.
func DefaultConfig() Config {
	return Config{
		Sockets:        2,
		CoresPerSocket: 18,
		ThreadsPerCore: 2,
		NominalGHz:     2.3,
		MinGHz:         1.2,
		MaxTurboGHz:    3.6,
		TurboBinGHz:    0.05,
		LLCMB:          45, // 2.5 MB per core * 18 cores
		LLCWays:        20,
		DRAMGBs:        60,
		TDPWatts:       145,
		IdleWatts:      40,
		CoreDynWatts:   5.2,
		FreqExponent:   2.5,
		LinkGbps:       10,
	}
}

// CompactConfig returns a single-socket efficiency server — the second
// hardware generation mixed into fleet experiments: fewer, slower cores,
// a smaller LLC and a tighter power budget than the reference dual-socket
// machine, as found in the older rows of a heterogeneous fleet.
func CompactConfig() Config {
	return Config{
		Sockets:        1,
		CoresPerSocket: 16,
		ThreadsPerCore: 2,
		NominalGHz:     2.0,
		MinGHz:         1.0,
		MaxTurboGHz:    3.1,
		TurboBinGHz:    0.05,
		LLCMB:          32, // 2 MB per core * 16 cores
		LLCWays:        16,
		DRAMGBs:        50,
		TDPWatts:       105,
		IdleWatts:      28,
		CoreDynWatts:   4.4,
		FreqExponent:   2.5,
		LinkGbps:       10,
	}
}

// Validate reports whether the configuration is self-consistent.
func (c Config) Validate() error {
	switch {
	case c.Sockets <= 0:
		return errors.New("hw: Sockets must be positive")
	case c.CoresPerSocket <= 0:
		return errors.New("hw: CoresPerSocket must be positive")
	case c.ThreadsPerCore <= 0:
		return errors.New("hw: ThreadsPerCore must be positive")
	case c.MinGHz <= 0 || c.NominalGHz < c.MinGHz || c.MaxTurboGHz < c.NominalGHz:
		return fmt.Errorf("hw: need 0 < MinGHz <= NominalGHz <= MaxTurboGHz, got %g/%g/%g",
			c.MinGHz, c.NominalGHz, c.MaxTurboGHz)
	case c.TurboBinGHz < 0:
		return errors.New("hw: TurboBinGHz must be non-negative")
	case c.LLCMB <= 0:
		return errors.New("hw: LLCMB must be positive")
	case c.LLCWays <= 0:
		return errors.New("hw: LLCWays must be positive")
	case c.DRAMGBs <= 0:
		return errors.New("hw: DRAMGBs must be positive")
	case c.TDPWatts <= c.IdleWatts:
		return errors.New("hw: TDPWatts must exceed IdleWatts")
	case c.CoreDynWatts <= 0:
		return errors.New("hw: CoreDynWatts must be positive")
	case c.FreqExponent < 1:
		return errors.New("hw: FreqExponent must be at least 1")
	case c.LinkGbps <= 0:
		return errors.New("hw: LinkGbps must be positive")
	}
	return nil
}

// TotalCores returns the number of physical cores in the server.
func (c Config) TotalCores() int { return c.Sockets * c.CoresPerSocket }

// TotalDRAMGBs returns the aggregate peak DRAM bandwidth across sockets.
func (c Config) TotalDRAMGBs() float64 { return float64(c.Sockets) * c.DRAMGBs }

// TotalTDPWatts returns the aggregate TDP across sockets.
func (c Config) TotalTDPWatts() float64 { return float64(c.Sockets) * c.TDPWatts }

// LinkGBs returns the NIC line rate in gigabytes per second.
func (c Config) LinkGBs() float64 { return c.LinkGbps / 8 }

// WayMB returns the capacity of a single LLC way in MB.
func (c Config) WayMB() float64 { return c.LLCMB / float64(c.LLCWays) }
