"""Giving a test provider a grid form."""


def grid_form(provider):
    """The provider, made its own grid form: raw_grid then passes it a whole angle array in one call."""
    provider.grid = provider
    return provider
