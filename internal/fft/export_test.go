package fft

// The kernel swap and the bit comparison, for the external tests of this
// directory, which drive the packages above fft with both kernel sets.
var (
	UseGoKernels = useGoKernels
	SameBits     = sameBits
)
