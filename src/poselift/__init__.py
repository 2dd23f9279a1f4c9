"""2D pose candidate generation, 2D-to-3D lifting, and energy-based selection."""

__version__ = "0.1.0"
