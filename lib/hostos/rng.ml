include Splitmix
