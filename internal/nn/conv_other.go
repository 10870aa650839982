//go:build !amd64

package nn

// cpu.AVX2 is false off amd64, so the convolution never calls these.

func convTileAVX2(*fwdTile, *fwdPass) { panic(noAVX2) }
func convCellAVX2(float64, *float64, *float64, *float64, *float64, int, int, int, int, int, int, int) {
	panic(noAVX2)
}

const noAVX2 = "nn: no AVX2 kernels on this architecture"
