"""Cache-enabled cluster radio access: capacity analysis and allocation games.

The package models a pool of radio heads on a disk serving cached and
backhauled content under statistical delay constraints, and allocates
radio heads and resource blocks by coalition formation.  Analytic results
live in :mod:`crancache.effcap`, Monte Carlo checks in
:mod:`crancache.simkit`, the games in :mod:`crancache.games`, and the
command-line front end in :mod:`crancache.cli`.
"""
