"""Fixture: PC009 — page payload written after handing out sealed_view()."""


def patch_after_ship(block, network, header):
    view = block.sealed_view()
    network.ship_page("a", "b", view)
    block.write_header(header)  # fires: the receiver reads these bytes


def patch_after_ship_suppressed(block, network, header):
    view = block.sealed_view()
    network.ship_page("a", "b", view)
    block.write_header(header)  # pcsan: disable=PC009
