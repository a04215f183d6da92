"""Watts times microseconds is microjoules; ``_w`` is a width, not power."""


def slice_energy_uj(busy_watts, fraction, duration_us):
    energy_uj = busy_watts * fraction ** 3 * duration_us
    return energy_uj


def row_time_us(crop_w, per_pixel_us):
    return crop_w * per_pixel_us
