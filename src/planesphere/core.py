"""Domain types and scattering-angle kinematics shared by all modules.

Conventions
-----------
All internal quantities are nondimensionalized with hbar = c = 1 and the
surface-to-surface gap L as the unit of length: frequencies xi carry units
c/L, transverse wavenumbers k carry units 1/L, and every exported energy is
in units of hbar*c/L.  Conversion to other units happens only at the CLI
boundary.

A plane-wave channel is labeled by its imaginary frequency xi, the magnitude
k and azimuth phi of its transverse wave vector and its polarization in the
Fresnel (TE/TM) basis; the numeric layers take xi, k and phi as plain
floats or numpy arrays.  On the imaginary-frequency branch the z-component
of the wave vector is i*kappa with

    kappa = sqrt(xi**2 + k**2),

and the cosine of the angle between an incoming (upward) and an outgoing
(downward) channel analytically continues to

    cos(Theta) = -(kappa_in*kappa_out + k_in.k_out) / xi**2  <=  -1,

so that sin(Theta/2) = sqrt((1 - cos(Theta))/2) >= 1.  At the specular point
(k_in = k_out, same azimuth) sin(Theta/2) = kappa/xi exactly.  The
reflection module evaluates these angles vectorized, through the
cancellation-free P - xi^2 of reflection._p_diff.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


class Polarization(Enum):
    TE = "TE"
    TM = "TM"


@dataclass(frozen=True)
class Geometry:
    """Sphere of radius R at closest surface distance L above the plane.

    The distance between the sphere center and the plane is L + R.  Both
    lengths must be given in the same (arbitrary) unit; only the aspect
    ratio R/L enters the physics.
    """

    R: float
    L: float

    def __post_init__(self) -> None:
        if not (self.R > 0 and math.isfinite(self.R)):
            raise ValueError(f"sphere radius must be positive and finite, got {self.R}")
        if not (self.L > 0 and math.isfinite(self.L)):
            raise ValueError(f"gap must be positive and finite, got {self.L}")

    @property
    def aspect_ratio(self) -> float:
        """R/L, the only geometric parameter of the nondimensional problem."""
        return self.R / self.L
