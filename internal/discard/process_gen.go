// Code generated by instgen from discard.Iteration; DO NOT EDIT.

package discard

// prodIteration is discard.Iteration instantiated at
// *prodEnv: the verified body, byte for byte, every env call direct.
func prodIteration(env *prodEnv) {
	if !env.RingFull() {
		if env.Receive() && !env.PacketHasPort9() {
			env.RingPush()
		}
	}
	if !env.RingEmpty() && env.CanSend() {
		h := env.RingPop()
		env.Send(h)
	}
}
