package nn

// convTileAVX2 computes the four cells of t for the two channel blocks of p
// (see forwardAVX2): lane l of block b of cell c is, over the in-range taps
// in (ic, ky, kx) order, acc = bias[b+l], then acc = acc + kernT[tap][b+l]·x,
// stored to out[b+l][c] — VMULPD, then VADDPD, never fused.
//
//go:noescape
func convTileAVX2(t *fwdTile, p *fwdPass)

// convCellAVX2 adds one output cell's gradient to the weight and input
// gradients over its window — planes input channels of rows kernel rows of
// cols columns, row starts kRow apart in gk and k and xRow apart in x and
// din, kSkip and xSkip more between channels (in elements): first
// gk[i] = gk[i] + grad·x[i], then din[i] = din[i] + grad·k[i], four columns
// a vector and two- and one-wide at a row's end, so nothing past a row is
// read or written. gk or din nil leaves that half out.
//
//go:noescape
func convCellAVX2(grad float64, gk, din, x, k *float64, cols, rows, planes, kRow, kSkip, xRow, xSkip int)
