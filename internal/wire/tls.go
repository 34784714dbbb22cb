package wire

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"fmt"
	"math/big"
	"net"
	"time"
)

// alpnProtos is the ALPN order the front door offers under TLS: HTTP/2
// first, HTTP/1.1 fallback. A fresh slice per config: net/http edits a
// config's NextProtos in place.
func alpnProtos() []string { return []string{"h2", "http/1.1"} }

// serverTLS clones cfg for serving, ensuring the ALPN list advertises h2
// so clients negotiate HTTP/2 over TLS.
func serverTLS(cfg *tls.Config) *tls.Config {
	c := cfg.Clone()
	if len(c.NextProtos) == 0 {
		c.NextProtos = alpnProtos()
	}
	return c
}

// LoadServerTLS builds a server TLS config from PEM cert/key files (the
// -tls-cert/-tls-key flags of cmd/secembd).
func LoadServerTLS(certFile, keyFile string) (*tls.Config, error) {
	cert, err := tls.LoadX509KeyPair(certFile, keyFile)
	if err != nil {
		return nil, fmt.Errorf("wire: load TLS keypair: %w", err)
	}
	return &tls.Config{Certificates: []tls.Certificate{cert}, NextProtos: alpnProtos()}, nil
}

// SelfSignedTLS mints an ephemeral ECDSA P-256 certificate for loopback
// (127.0.0.1, ::1, localhost) and returns a server config holding it plus
// a client config that trusts exactly that certificate. It backs
// self-hosted soak runs and tests, where the point is exercising the real
// TLS+h2 path, not PKI.
func SelfSignedTLS() (server, client *tls.Config, err error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, nil, err
	}
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: "secemb-wire-selfsigned"},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(24 * time.Hour),
		KeyUsage:              x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
		ExtKeyUsage:           []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		BasicConstraintsValid: true,
		IsCA:                  true,
		DNSNames:              []string{"localhost"},
		IPAddresses:           []net.IP{net.IPv4(127, 0, 0, 1), net.IPv6loopback},
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		return nil, nil, err
	}
	leaf, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, nil, err
	}
	pool := x509.NewCertPool()
	pool.AddCert(leaf)
	server = &tls.Config{
		Certificates: []tls.Certificate{{Certificate: [][]byte{der}, PrivateKey: key, Leaf: leaf}},
		NextProtos:   alpnProtos(),
	}
	client = &tls.Config{RootCAs: pool, NextProtos: alpnProtos()}
	return server, client, nil
}
