package geom

import "math"

// Quat is a unit quaternion w + xi + yj + zk representing a rotation.
// The scalar part is W; (X, Y, Z) is the vector part.
type Quat struct {
	W, X, Y, Z float64
}

// IdentityQuat returns the identity rotation quaternion.
func IdentityQuat() Quat { return Quat{W: 1} }

// QuatFromAxisAngle builds the quaternion for a rotation of angle radians
// about axis.
func QuatFromAxisAngle(axis Vec3, angle float64) Quat {
	u := axis.Normalize()
	s, c := math.Sincos(angle / 2)
	return Quat{W: c, X: u[0] * s, Y: u[1] * s, Z: u[2] * s}
}

// Quat converts Euler angles to the equivalent unit quaternion
// (same ZYX composition as Euler.DCM).
func (e Euler) Quat() Quat {
	sr, cr := math.Sincos(e.Roll / 2)
	sp, cp := math.Sincos(e.Pitch / 2)
	sy, cy := math.Sincos(e.Yaw / 2)
	return Quat{
		W: float64(cy*cp*cr) + float64(sy*sp*sr),
		X: float64(cy*cp*sr) - float64(sy*sp*cr),
		Y: float64(cy*sp*cr) + float64(sy*cp*sr),
		Z: float64(sy*cp*cr) - float64(cy*sp*sr),
	}
}

// Conj returns the conjugate (inverse, for a unit quaternion).
func (q Quat) Conj() Quat { return Quat{q.W, -q.X, -q.Y, -q.Z} }

// Mul returns the Hamilton product q*r (apply r first, then q, matching
// DCM multiplication order).
func (q Quat) Mul(r Quat) Quat {
	return Quat{
		W: float64(q.W*r.W) - float64(q.X*r.X) - float64(q.Y*r.Y) - float64(q.Z*r.Z),
		X: float64(q.W*r.X) + float64(q.X*r.W) + float64(q.Y*r.Z) - float64(q.Z*r.Y),
		Y: float64(q.W*r.Y) - float64(q.X*r.Z) + float64(q.Y*r.W) + float64(q.Z*r.X),
		Z: float64(q.W*r.Z) + float64(q.X*r.Y) - float64(q.Y*r.X) + float64(q.Z*r.W),
	}
}

// Apply rotates v by q (equivalent to q.DCM().Apply(v)).
func (q Quat) Apply(v Vec3) Vec3 {
	// v' = v + 2*qv × (qv × v + w*v)
	qv := Vec3{q.X, q.Y, q.Z}
	t := qv.Cross(v).Scale(2)
	return v.Add(t.Scale(q.W)).Add(qv.Cross(t))
}

// DCM converts the (assumed unit) quaternion to a rotation matrix.
func (q Quat) DCM() DCM {
	w, x, y, z := q.W, q.X, q.Y, q.Z
	return DCM{
		{1 - float64(2*(float64(y*y)+float64(z*z))), 2 * (float64(x*y) - float64(w*z)), 2 * (float64(x*z) + float64(w*y))},
		{2 * (float64(x*y) + float64(w*z)), 1 - float64(2*(float64(x*x)+float64(z*z))), 2 * (float64(y*z) - float64(w*x))},
		{2 * (float64(x*z) - float64(w*y)), 2 * (float64(y*z) + float64(w*x)), 1 - float64(2*(float64(x*x)+float64(y*y)))},
	}
}

// Euler converts the quaternion to roll/pitch/yaw via the DCM.
func (q Quat) Euler() Euler { return q.DCM().Euler() }
