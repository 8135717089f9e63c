// Package geom implements the 3-D rotation algebra used throughout the
// boresight system: direction cosine matrices (DCMs), Euler angles,
// quaternions, skew-symmetric operators and small-angle approximations.
//
// # Conventions
//
// Frames follow the paper's Figure 1. The vehicle body frame (x, y, z) is
// right-handed with x forward, y right, z down; the sensor frame
// (x', y', z') is nominally aligned with it. Euler angles are aerospace
// roll/pitch/yaw (φ about x, θ about y, ψ about z), composed in ZYX order:
//
//	C_b2n = Rz(yaw) * Ry(pitch) * Rx(roll)
//
// so that DCM returned by Euler.DCM rotates body-frame vectors into the
// parent (navigation) frame. Transpose to go the other way.
package geom

import (
	"fmt"
	"math"
)

// Deg2Rad converts degrees to radians.
func Deg2Rad(d float64) float64 { return d * math.Pi / 180 }

// Rad2Deg converts radians to degrees.
func Rad2Deg(r float64) float64 { return r * 180 / math.Pi }

// Vec3 is a 3-vector in some right-handed Cartesian frame.
type Vec3 [3]float64

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v[0] + w[0], v[1] + w[1], v[2] + w[2]} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v[0] - w[0], v[1] - w[1], v[2] - w[2]} }

// Scale returns s*v.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{s * v[0], s * v[1], s * v[2]} }

// Dot returns the inner product v·w.
func (v Vec3) Dot(w Vec3) float64 { return v[0]*w[0] + v[1]*w[1] + v[2]*w[2] }

// Cross returns the cross product v × w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		float64(v[1]*w[2]) - float64(v[2]*w[1]),
		float64(v[2]*w[0]) - float64(v[0]*w[2]),
		float64(v[0]*w[1]) - float64(v[1]*w[0]),
	}
}

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Normalize returns v scaled to unit length; the zero vector is returned
// unchanged.
func (v Vec3) Normalize() Vec3 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// Euler holds aerospace roll/pitch/yaw angles in radians.
type Euler struct {
	Roll  float64 // φ, rotation about x
	Pitch float64 // θ, rotation about y
	Yaw   float64 // ψ, rotation about z
}

// EulerDeg builds an Euler triple from degrees.
func EulerDeg(roll, pitch, yaw float64) Euler {
	return Euler{Deg2Rad(roll), Deg2Rad(pitch), Deg2Rad(yaw)}
}

// Deg returns the angles in degrees as (roll, pitch, yaw).
func (e Euler) Deg() (roll, pitch, yaw float64) {
	return Rad2Deg(e.Roll), Rad2Deg(e.Pitch), Rad2Deg(e.Yaw)
}

// Vec returns the angles as a Vec3 (roll, pitch, yaw) in radians.
func (e Euler) Vec() Vec3 { return Vec3{e.Roll, e.Pitch, e.Yaw} }

// String renders the angles in degrees for debugging.
func (e Euler) String() string {
	r, p, y := e.Deg()
	return fmt.Sprintf("euler(roll=%.4f° pitch=%.4f° yaw=%.4f°)", r, p, y)
}

// DCM is a 3x3 direction cosine (rotation) matrix, row-major.
type DCM [3][3]float64

// IdentityDCM returns the identity rotation.
func IdentityDCM() DCM {
	return DCM{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
}

// DCM returns the ZYX-composed rotation matrix that takes vectors from the
// rotated (body) frame into the parent frame:
//
//	C = Rz(yaw) * Ry(pitch) * Rx(roll).
func (e Euler) DCM() DCM {
	cr, sr := math.Cos(e.Roll), math.Sin(e.Roll)
	cp, sp := math.Cos(e.Pitch), math.Sin(e.Pitch)
	cy, sy := math.Cos(e.Yaw), math.Sin(e.Yaw)
	return DCM{
		{cy * cp, cy*sp*sr - sy*cr, cy*sp*cr + sy*sr},
		{sy * cp, sy*sp*sr + cy*cr, sy*sp*cr - cy*sr},
		{-sp, cp * sr, cp * cr},
	}
}

// Euler extracts ZYX roll/pitch/yaw from the DCM. At the pitch
// singularity (|pitch| = 90°) roll is reported as 0 and yaw absorbs the
// remaining rotation.
func (c DCM) Euler() Euler {
	sp := -c[2][0]
	if sp > 1 {
		sp = 1
	} else if sp < -1 {
		sp = -1
	}
	pitch := math.Asin(sp)
	if math.Abs(sp) > 1-1e-12 {
		// Gimbal lock: only yaw±roll observable; conventionally roll=0.
		yaw := math.Atan2(-c[0][1], c[1][1])
		return Euler{Roll: 0, Pitch: pitch, Yaw: yaw}
	}
	roll := math.Atan2(c[2][1], c[2][2])
	yaw := math.Atan2(c[1][0], c[0][0])
	return Euler{Roll: roll, Pitch: pitch, Yaw: yaw}
}

// Mul returns the composed rotation c*d.
func (c DCM) Mul(d DCM) DCM {
	var out DCM
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			out[i][j] = c[i][0]*d[0][j] + c[i][1]*d[1][j] + c[i][2]*d[2][j]
		}
	}
	return out
}

// T returns the transpose (= inverse for a proper rotation).
func (c DCM) T() DCM {
	var out DCM
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			out[i][j] = c[j][i]
		}
	}
	return out
}

// Apply rotates v by c.
func (c DCM) Apply(v Vec3) Vec3 {
	return Vec3{
		c[0][0]*v[0] + c[0][1]*v[1] + c[0][2]*v[2],
		c[1][0]*v[0] + c[1][1]*v[1] + c[1][2]*v[2],
		c[2][0]*v[0] + c[2][1]*v[1] + c[2][2]*v[2],
	}
}

// Det returns the determinant (+1 for a proper rotation).
func (c DCM) Det() float64 {
	return c[0][0]*(c[1][1]*c[2][2]-c[1][2]*c[2][1]) -
		c[0][1]*(c[1][0]*c[2][2]-c[1][2]*c[2][0]) +
		c[0][2]*(c[1][0]*c[2][1]-c[1][1]*c[2][0])
}

// IsRotation reports whether c is orthonormal with determinant +1 to
// within tol.
func (c DCM) IsRotation(tol float64) bool {
	p := c.Mul(c.T())
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(p[i][j]-want) > tol {
				return false
			}
		}
	}
	return math.Abs(c.Det()-1) <= tol
}

// Orthonormalize renormalises an almost-rotation matrix using one pass of
// Gram-Schmidt on the rows, restoring orthonormality after accumulated
// floating point drift (e.g. after many incremental updates).
func (c DCM) Orthonormalize() DCM {
	x := Vec3{c[0][0], c[0][1], c[0][2]}.Normalize()
	y := Vec3{c[1][0], c[1][1], c[1][2]}
	y = y.Sub(x.Scale(x.Dot(y))).Normalize()
	z := x.Cross(y)
	return DCM{
		{x[0], x[1], x[2]},
		{y[0], y[1], y[2]},
		{z[0], z[1], z[2]},
	}
}

// Skew returns the skew-symmetric cross-product matrix [v×] such that
// Skew(v).Apply(w) == v.Cross(w).
func Skew(v Vec3) DCM {
	return DCM{
		{0, -v[2], v[1]},
		{v[2], 0, -v[0]},
		{-v[1], v[0], 0},
	}
}

// SmallAngleDCM returns the first-order rotation I + [a×] for a small
// rotation vector a (radians). This is the linearisation the boresight
// filter uses for the misalignment.
func SmallAngleDCM(a Vec3) DCM {
	return DCM{
		{1, -a[2], a[1]},
		{a[2], 1, -a[0]},
		{-a[1], a[0], 1},
	}
}

// AxisAngleDCM returns the exact rotation of angle (radians) about the
// given (not necessarily unit) axis, via Rodrigues' formula.
func AxisAngleDCM(axis Vec3, angle float64) DCM {
	u := axis.Normalize()
	c, s := math.Cos(angle), math.Sin(angle)
	k := 1 - c
	return DCM{
		{c + u[0]*u[0]*k, u[0]*u[1]*k - u[2]*s, u[0]*u[2]*k + u[1]*s},
		{u[1]*u[0]*k + u[2]*s, c + u[1]*u[1]*k, u[1]*u[2]*k - u[0]*s},
		{u[2]*u[0]*k - u[1]*s, u[2]*u[1]*k + u[0]*s, c + u[2]*u[2]*k},
	}
}
