"""Numerical certification toolkit for radial curvature profiles: kick
thresholds, conjugate points via Sturm-Liouville second zeros, bifurcator
classification, surfaces of revolution, and planar curve reconstruction.

Import the submodules themselves (``from slboundary import kick``); the
package re-exports nothing, so importing it loads no scipy.
"""

__version__ = "0.1.0"
