package sim

// PoissonProcess generates the arrival instants of a homogeneous Poisson
// process with a fixed rate, expressed in arrivals per second.
type PoissonProcess struct {
	rng  *RNG
	rate float64
	last float64
}

// NewPoissonProcess returns a process with the given rate (arrivals/second)
// whose first arrival occurs after time 0. It panics if rate <= 0.
func NewPoissonProcess(rng *RNG, rate float64) *PoissonProcess {
	if rate <= 0 {
		panic("sim: Poisson rate must be positive")
	}
	return &PoissonProcess{rng: rng, rate: rate}
}

// Rate reports the configured arrival rate in arrivals per second.
func (p *PoissonProcess) Rate() float64 { return p.rate }

// Next returns the next arrival instant, strictly after the previous one.
func (p *PoissonProcess) Next() float64 {
	p.last += p.rng.Exp(1 / p.rate)
	return p.last
}
