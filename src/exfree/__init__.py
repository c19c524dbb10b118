"""Deterministic simulator and analysis toolkit for exchange-free bosonic
state transfer through a detuned bus mode.

The API lives in the modules: `exfree.fock`, `exfree.model`,
`exfree.analytic`, `exfree.dynamics`, `exfree.metrics`,
`exfree.calibration`, `exfree.experiments` and `exfree.cli`.  Importing the
package alone loads none of them."""

__version__ = "0.1.0"
