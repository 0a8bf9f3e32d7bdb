package nf

// SetTraceSample makes p's trace ring keep one record per sample
// packets seen on timed polls, until a worker-count change rebuilds
// the telemetry, so a test can read single records without first
// sending telemetry.TraceSample packets.
func SetTraceSample(p *Pipeline, sample uint64) {
	p.tel.Load().Sample = sample
	for _, wk := range p.workers {
		wk.sample = sample
	}
}
