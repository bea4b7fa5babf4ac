import pytest

from ddiqkd.config import ChannelSpec
from ddiqkd.errors import ValidationError


def test_channel_spec_range():
    ChannelSpec(0.0)
    ChannelSpec(1.0)
    with pytest.raises(ValidationError):
        ChannelSpec(1.01)
    with pytest.raises(ValidationError):
        ChannelSpec(-0.1)
