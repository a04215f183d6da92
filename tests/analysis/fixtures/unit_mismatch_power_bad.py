"""Watts times milliseconds is millijoules, stored as microjoules."""


def slice_energy_uj(busy_watts, duration_ms):
    energy_uj = busy_watts * duration_ms
    return energy_uj
