from sw_sentinel.domains import registrable_domain, url_registrable_domain


def test_plain_tld_uses_last_two_labels():
    assert registrable_domain("push.waploaded.com") == "waploaded.com"
    assert registrable_domain("a.b.c.example.org") == "example.org"


def test_multi_label_suffixes():
    assert registrable_domain("news.bbc.co.uk") == "bbc.co.uk"
    assert registrable_domain("shop.example.com.au") == "example.com.au"
    assert registrable_domain("user.github.io") == "user.github.io"
    assert registrable_domain("app.user.github.io") == "user.github.io"


def test_bare_and_edge_hosts():
    assert registrable_domain("localhost") == "localhost"
    assert registrable_domain("example.com.") == "example.com"
    assert registrable_domain("10.0.0.1") == "10.0.0.1"
    assert registrable_domain("CO.UK") == "co.uk"


def test_url_helper():
    assert url_registrable_domain("https://cdn.victim.example:8443/x?q=1") == "victim.example"
    assert url_registrable_domain("not a url") == ""
