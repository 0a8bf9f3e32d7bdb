// Code generated by instgen from policer.ProcessPacket; DO NOT EDIT.

package policer

// prodProcessPacket is policer.ProcessPacket instantiated at
// *prodEnv: the verified body, byte for byte, every env call direct.
func prodProcessPacket(env *prodEnv) {
	env.ExpireState()
	if !env.FrameIntact() || !env.EtherIsIPv4() || !env.IPv4HeaderValid() {
		env.Drop()
		return
	}
	if env.PacketFromInternal() {
		env.Passthrough()
		return
	}
	h, ok := env.LookupBucket()
	if ok {
		env.Rejuvenate(h)
	} else {
		h, ok = env.CreateBucket()
		if !ok {
			env.Drop() // subscriber table full
			return
		}
	}
	if env.Charge(h) {
		env.Forward()
	} else {
		env.Drop() // over rate
	}
}
