"""tiltlab: finite-scale verification of tilting-class and localization
arithmetic over quiver algebras, the integers, and free group algebras.

Importing the package loads no submodule; import names from the modules
that define them (``tiltlab.exactlin``, ``tiltlab.quiverrep``, ...)."""

__version__ = "0.1.0"
